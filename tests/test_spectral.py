"""Spectral radius, Perron vectors, degree-edge bound, quotient matrices.

Closed-form expected values: lam(K_n) = n-1, lam(C_n) = 2, lam(K_{p,q}) =
sqrt(pq), lam(P_n) = 2 cos(pi/(n+1)).  Random instances are cross-checked
against numpy's symmetric eigensolver as an independent oracle.
"""

from __future__ import annotations

import hashlib
import math
import random
from operator import truediv

import numpy as np
import pytest

from factor_spectra.families import ExtremalParams, extremal_graph
from factor_spectra.graphs import (
    Graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    path_graph,
    random_connected_graph,
)
from factor_spectra import spectral
from factor_spectra.spectral import (
    ConvergenceError,
    SpectralReport,
    hong_bound,
    hong_bound_formula,
    quotient_matrix,
    radius_unless_below,
    spectral_radius,
)


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def numpy_radius(g: Graph) -> float:
    a = np.zeros((g.n, g.n))
    for u, v in g.edges():
        a[u, v] = a[v, u] = 1.0
    return float(np.max(np.linalg.eigvalsh(a))) if g.n else 0.0


def explorer_graphs(r: int = 2, k: int = 0, n: int = 12) -> tuple[Graph, list[Graph]]:
    """The distinguished member F and the graphs of the explorer's phases A
    (F plus one edge) and B (F with one edge swapped), at criterion 11's
    shape by default."""
    f = extremal_graph(ExtremalParams(r, r, k, n))
    non_edges = [(u, v) for u in range(n) for v in range(u + 1, n) if not f.has_edge(u, v)]
    out = [f.with_edge(u, v) for u, v in non_edges]
    for eu, ev in f.edges():
        base = f.without_edge(eu, ev)
        out.extend(base.with_edge(fu, fv) for fu, fv in non_edges)
    return f, out


def report_corpus() -> list[Graph]:
    """Explorer, sparse and seeded random graphs, 1113 in all."""
    f, screened = explorer_graphs()
    rng = random.Random(2024)
    rand = [
        random_connected_graph(rng, rng.randint(2, 30), rng.uniform(0.1, 0.9)) for _ in range(60)
    ]
    return [f, *screened, *(path_graph(n) for n in range(1, 41)), *rand]


class TestSpectralRadius:
    def test_complete_graphs(self):
        for n in range(1, 10):
            rep = spectral_radius(complete_graph(n))
            assert rep.lam == pytest.approx(n - 1, abs=1e-9)
            assert rep.connected or n == 1

    def test_cycles_and_paths(self):
        assert spectral_radius(cycle_graph(4)).lam == pytest.approx(2, abs=1e-9)
        assert spectral_radius(cycle_graph(7)).lam == pytest.approx(2, abs=1e-9)
        for n in range(2, 9):
            want = 2 * math.cos(math.pi / (n + 1))
            assert spectral_radius(path_graph(n)).lam == pytest.approx(want, abs=1e-9)

    def test_complete_bipartite(self):
        for p, q in [(1, 3), (2, 3), (3, 3), (2, 5)]:
            rep = spectral_radius(complete_bipartite(p, q))
            assert rep.lam == pytest.approx(math.sqrt(p * q), abs=1e-9)

    def test_single_vertex_and_no_edges(self):
        rep = spectral_radius(empty_graph(1))
        assert rep.lam == pytest.approx(0, abs=1e-12)
        rep = spectral_radius(empty_graph(4))
        assert rep.lam == pytest.approx(0, abs=1e-12)
        assert not rep.connected

    def test_disconnected_flagged_radius_correct(self):
        g = disjoint_union(complete_graph(2), complete_graph(3))
        rep = spectral_radius(g)
        assert not rep.connected
        assert rep.lam == pytest.approx(2, abs=1e-9)

    def test_perron_normalization_and_positivity(self):
        rep = spectral_radius(cycle_graph(5))
        assert max(rep.perron) == 1.0
        # vertex-transitive, so the Perron vector is constant
        assert all(v == pytest.approx(1.0, abs=1e-8) for v in rep.perron)
        rep = spectral_radius(complete_bipartite(1, 3))
        assert all(v > 0 for v in rep.perron)

    def test_residual_contract(self):
        rng = random.Random(5)
        for _ in range(25):
            n = rng.randint(2, 12)
            g = random_graph(n, 0.5, rng)
            rep = spectral_radius(g, tol=1e-10)
            assert rep.residual <= 1e-10
            # recompute A x - lam x from the report alone
            res = [0.0] * n
            for u, v in g.edges():
                res[u] += rep.perron[v]
                res[v] += rep.perron[u]
            worst = max(abs(res[u] - rep.lam * rep.perron[u]) for u in range(n))
            assert worst <= 1e-10 + 1e-12

    def test_against_numpy_oracle(self):
        rng = random.Random(99)
        for _ in range(60):
            n = rng.randint(1, 14)
            g = random_graph(n, rng.choice([0.2, 0.5, 0.8]), rng)
            rep = spectral_radius(g)
            assert rep.lam == pytest.approx(numpy_radius(g), abs=1e-8)

    def test_explorer_graphs_against_numpy_oracle(self):
        _, graphs = explorer_graphs()
        for g in graphs[::7]:
            assert spectral_radius(g).lam == pytest.approx(numpy_radius(g), abs=1e-8)

    def test_reports_pinned(self):
        # every float of every report, bit for bit: a change to the
        # iteration that moves any lam, perron entry, residual or
        # iteration count moves this digest
        digest = hashlib.sha256()
        for g in report_corpus():
            digest.update(repr(spectral_radius(g)).encode())
        assert digest.hexdigest() == (
            "49feaedb771a639508bfd9d102937325bf1a85f225f4411dd24c0b03dc6fe9db"
        )

    def test_degree_bounds_property(self):
        rng = random.Random(3)
        for _ in range(40):
            n = rng.randint(2, 12)
            g = random_graph(n, 0.4, rng)
            rep = spectral_radius(g)
            avg = 2 * g.edge_count / n
            assert rep.lam >= avg - 1e-9
            assert rep.lam <= max(g.degrees()) + 1e-9

    def test_nonconvergence_raises(self):
        # a path is not vertex-transitive, so the all-ones start is far
        # from the eigenvector and two iterations cannot reach 1e-10
        with pytest.raises(ConvergenceError):
            spectral_radius(path_graph(6), tol=1e-10, max_iter=2)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            spectral_radius(empty_graph(0))
        with pytest.raises(ValueError):
            spectral_radius(complete_graph(3), tol=0)

    @pytest.mark.parametrize("tol", [-1e-10, math.nan, math.inf])
    def test_tolerance_must_be_positive_and_finite(self, tol):
        # nan failed every comparison and ran out the budget; inf stopped
        # P_5 after 2 steps at 1.714 against 2 cos(pi/6) = 1.732
        with pytest.raises(ValueError, match="positive and finite"):
            spectral_radius(path_graph(5), tol=tol)

    @pytest.mark.parametrize("max_iter", [0, -3])
    def test_budget_must_be_positive(self, max_iter):
        with pytest.raises(ValueError, match="max_iter must be at least 1"):
            spectral_radius(path_graph(5), max_iter=max_iter)


class TestScreen:
    """`radius_unless_below` returns None only when lam < below, and
    otherwise the very report of `spectral_radius`."""

    @staticmethod
    def agrees(g: Graph, below: float) -> bool:
        """Check one screen against numpy; True iff it returned None."""
        screened = radius_unless_below(g, below)
        if screened is None:
            assert numpy_radius(g) < below
            return True
        assert screened == spectral_radius(g)
        return False

    def test_random_connected_graphs(self):
        rng = random.Random(7)
        dropped = kept = 0
        for _ in range(80):
            g = random_connected_graph(rng, rng.randint(2, 16), rng.uniform(0.1, 0.9))
            lam = numpy_radius(g)
            for offset in (-0.5, -1e-3, -1e-8, 1e-8, 1e-3, 0.5):
                if self.agrees(g, lam + offset):
                    dropped += 1
                else:
                    kept += 1
        assert dropped and kept

    def test_explorer_phase_b_graphs(self):
        # the explorer's own threshold, lam_F - 2 * STRICT_MARGIN
        f, graphs = explorer_graphs()
        below = spectral_radius(f).lam - 2e-9
        outcomes = [self.agrees(g, below) for g in graphs]
        assert any(outcomes) and not all(outcomes)

    def test_dropped_graphs_fail_the_float_test(self):
        # soundness in the explorer's terms: every graph the screen drops
        # has a float radius below lam_F - STRICT_MARGIN
        f, graphs = explorer_graphs()
        lam_f = spectral_radius(f).lam
        for g in graphs:
            if radius_unless_below(g, lam_f - 2e-9) is None:
                assert spectral_radius(g).lam < lam_f - 1e-9

    def test_bound_skipped_once_an_entry_underflows(self):
        # the Cartesian product P_40 x K_5 (40 copies of K_5 along a path)
        # plus an isolated vertex, 201 vertices: the isolated entry decays as
        # 1/(1 + lam)^t with lam near 6 and reaches 0.0 at step 383, before
        # the rest converges; the bound needs x > 0.  The test needs that
        # step to come before the first handover to Lanczos, at
        # LANCZOS_AFTER = 400, which keeps the 0.0 and reports within n
        # steps.  A handover well before step 383 starts from an entry that
        # Lanczos does not round to 0.0, and fails here.  P_40 plus an
        # isolated vertex would not do: its entry reaches 0.0 at step 680
        edges = [(5 * i + j, 5 * i + h) for i in range(40) for j in range(5) for h in range(j)]
        edges += [(5 * i + j, 5 * i + 5 + j) for i in range(39) for j in range(5)]
        g = disjoint_union(Graph.from_edges(200, edges), empty_graph(1))
        report = spectral_radius(g)
        assert report.iterations <= spectral.LANCZOS_AFTER + g.n
        assert min(report.perron) == 0.0
        assert radius_unless_below(g, report.lam - 0.1) == report
        assert radius_unless_below(g, report.lam + 0.5) is None

    def test_same_errors(self):
        with pytest.raises(ValueError):
            radius_unless_below(empty_graph(0), 1.0)


def reference_power_iteration(
    g: Graph, tol: float, max_iter: int, below: float | None
) -> SpectralReport | None:
    """The power iteration with an eager stopping rule, kept as the oracle
    for `spectral._power_iteration`: it forms the Rayleigh quotient at
    every step and the full residual whenever the quotient is stable.  The
    solver must return the same report or None, or raise the same
    ConvergenceError, on every valid (tol, max_iter, below)."""
    n = g.n
    epairs = g.edges()
    connected = g.is_connected()
    x = [1.0] * n
    rho_prev = float("inf")
    for it in range(1, max_iter + 1):
        y = list(x)  # the +I part
        for u, v in epairs:
            y[u] += x[v]
            y[v] += x[u]
        if below is not None and min(x) > 0.0 and max(map(truediv, y, x)) - 1.0 < below:
            return None
        dot_xy = 0.0
        dot_xx = 0.0
        for u in range(n):
            dot_xy += x[u] * y[u]
            dot_xx += x[u] * x[u]
        rho = dot_xy / dot_xx
        if abs(rho - rho_prev) < tol:
            residual = max(abs(y[u] - rho * x[u]) for u in range(n))
            if residual < tol:
                return SpectralReport(
                    lam=rho - 1.0,
                    perron=tuple(x),
                    iterations=it,
                    residual=residual,
                    connected=connected,
                )
        scale = max(y)  # >= 1 since y >= x elementwise and max(x) = 1
        x = [v / scale for v in y]
        rho_prev = rho
    raise ConvergenceError(
        f"power iteration did not reach tol={tol} within {max_iter} iterations"
    )


def relabelled(rng: random.Random, n: int, edges: list[tuple[int, int]]) -> Graph:
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph.from_edges(n, [(perm[u], perm[v]) for u, v in edges])


def prufer_tree(rng: random.Random, n: int) -> Graph:
    """A uniform random labelled tree on n >= 2 vertices."""
    code = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in code:
        degree[v] += 1
    edges = []
    for v in code:
        leaf = degree.index(1)
        edges.append((leaf, v))
        degree[leaf] = 0
        degree[v] -= 1
    edges.append(tuple(u for u in range(n) if degree[u] == 1))
    return Graph.from_edges(n, edges)


def legged_path(legs: list[int]) -> tuple[int, list[tuple[int, int]]]:
    """A spine path with legs[i] pendant vertices on spine vertex i."""
    n = len(legs)
    edges = [(i, i + 1) for i in range(n - 1)]
    for i, count in enumerate(legs):
        for _ in range(count):
            edges.append((i, n))
            n += 1
    return n, edges


def caterpillar(rng: random.Random, spine: int, max_legs: int) -> Graph:
    """A spine path with up to max_legs pendant vertices per spine vertex."""
    legs = [rng.randint(0, max_legs) for _ in range(spine)]
    return relabelled(rng, *legged_path(legs))


def sparse_graphs(seed: int) -> list[Graph]:
    """Relabelled paths, Pruefer trees and caterpillars of the sizes the
    sparse spectral benchmark sends; the slowest need about 3000 steps."""
    rng = random.Random(seed)
    out = [relabelled(rng, n, [(i, i + 1) for i in range(n - 1)]) for n in (24, 36, 48, 62)]
    out += [prufer_tree(rng, n) for n in (30, 45, 62)]
    out += [caterpillar(rng, spine, 2) for spine in (10, 20)]
    return out


class TestAgainstReferenceLoop:
    """The solver against `reference_power_iteration`, bit for bit: every
    report field, every None from the screen, every ConvergenceError."""

    TOLS = (1e-4, 1e-8, 1e-10, 1e-12, 1e-14, 1e-15, 1e-16, 5e-324)
    # the reference is the power loop alone, so the budget stops where the
    # first handover to Lanczos would begin; TestLanczosPhase covers the
    # handovers, repeated every LANCZOS_AFTER power steps, and the power
    # steps resumed from each failed attempt's Ritz vector.  The handover
    # is moved to step 700 here so that the lazy stopping rule is compared
    # over 700 power steps, not only the first LANCZOS_AFTER = 400
    MAX_ITER = 700

    @pytest.fixture(autouse=True)
    def _handover_at_max_iter(self, monkeypatch):
        monkeypatch.setattr(spectral, "LANCZOS_AFTER", self.MAX_ITER)

    @staticmethod
    def outcome(fn, g: Graph, tol: float, max_iter: int, below: float | None) -> str:
        try:
            return repr(fn(g, tol, max_iter, below))
        except ConvergenceError as exc:
            return f"ConvergenceError: {exc}"

    def same(self, g: Graph, tol: float, max_iter: int, below: float | None = None) -> str:
        got = self.outcome(spectral._power_iteration, g, tol, max_iter, below)
        assert got == self.outcome(reference_power_iteration, g, tol, max_iter, below), (
            g, tol, max_iter, below
        )
        return got

    def test_sparse_graphs(self):
        outcomes = [
            self.same(g, tol, self.MAX_ITER) for g in sparse_graphs(11) for tol in self.TOLS
        ]
        # both exits are exercised: converged reports and exhausted budgets
        assert any(o.startswith("SpectralReport") for o in outcomes)
        assert any(o.startswith("ConvergenceError") for o in outcomes)

    def test_random_connected_graphs(self):
        rng = random.Random(12)
        for _ in range(30):
            g = random_connected_graph(rng, rng.randint(1, 24), rng.uniform(0.1, 0.9))
            for tol in self.TOLS:
                self.same(g, tol, rng.choice((1, 2, 5, 40, self.MAX_ITER)))

    def test_screen_thresholds(self):
        rng = random.Random(13)
        graphs = sparse_graphs(14)[::2] + [
            random_connected_graph(rng, rng.randint(2, 16), rng.uniform(0.1, 0.9))
            for _ in range(10)
        ]
        for g in graphs:
            lam = numpy_radius(g)
            for tol in (1e-4, 1e-10, 1e-15):
                for offset in (-0.5, -1e-3, -1e-8, 1e-8, 1e-3, 0.5):
                    self.same(g, tol, self.MAX_ITER, lam + offset)

    def test_underflow_graph(self):
        # the isolated vertex's entry underflows to 0.0 before the path
        # converges, so the screen turns off and a Perron entry is 0.0
        g = disjoint_union(path_graph(40), empty_graph(1))
        for tol in self.TOLS:
            for below in (None, 1.0, 2.5):
                self.same(g, tol, self.MAX_ITER, below)


class TestLanczosPhase:
    """Calls the power loop has not finished after LANCZOS_AFTER steps."""

    T = spectral.LANCZOS_AFTER

    def assert_contract(self, g: Graph, report: SpectralReport, tol: float = spectral.TOL):
        x = report.perron
        assert max(x) == 1.0
        assert min(x) > 0.0
        assert report.iterations > self.T
        # the residual of the report's own vector, recomputed from it alone
        y = list(x)
        for u, v in g.edges():
            y[u] += x[v]
            y[v] += x[u]
        dot_xy = dot_xx = 0.0
        for xu, yu in zip(x, y):
            dot_xy += xu * yu
            dot_xx += xu * xu
        rho = dot_xy / dot_xx
        assert max(abs(y[u] - rho * x[u]) for u in range(g.n)) < tol

    @pytest.mark.parametrize("n", [62, 100, 300, 500])
    def test_relabelled_paths(self, n):
        # P_62 needs 2711 power steps; P_500 used to exhaust max_iter
        g = relabelled(random.Random(n), n, [(i, i + 1) for i in range(n - 1)])
        report = spectral_radius(g)
        assert abs(report.lam - 2 * math.cos(math.pi / (n + 1))) <= 1e-12
        self.assert_contract(g, report)
        assert radius_unless_below(g, report.lam - 0.5) == report
        assert radius_unless_below(g, report.lam + 0.5) is None

    def test_benchmark_path_range_reports_after_one_handover(self):
        # every path the corpus and the sparse benchmark send, 23 <= n <= 62,
        # is past the power loop's reach at LANCZOS_AFTER and is reported by
        # the first Lanczos attempt within a few steps
        for n in range(23, 63):
            g = relabelled(random.Random(n), n, [(i, i + 1) for i in range(n - 1)])
            report = spectral_radius(g)
            assert report.iterations <= 410, (n, report.iterations)
            assert abs(report.lam - 2 * math.cos(math.pi / (n + 1))) <= 1e-12
            self.assert_contract(g, report)

    def test_twin_hub_caterpillar(self):
        # inputs.twin_hub_caterpillar() of the benchmark: two 5-leg hubs at
        # the ends of a 16-vertex spine and one leg on spine vertex 7, which
        # the power loop alone needs several hundred thousand steps for
        legs = [5] + [0] * 14 + [5]
        legs[7] += 1
        g = Graph.from_edges(*legged_path(legs))
        report = spectral_radius(g)
        assert abs(report.lam - numpy_radius(g)) <= 1e-12
        self.assert_contract(g, report)
        assert radius_unless_below(g, report.lam - 0.5) == report

    @pytest.mark.parametrize("n, tol", [(300, 1e-14), (500, 1e-13), (500, 1e-14)])
    def test_tight_tolerances(self, n, tol):
        # below the Ritz vector's residual floor near n eps an attempt
        # fails, and the power loop resumed from its vector reports within
        # a few steps.  Resuming from the last iterate instead took P_300
        # 83,113 steps at 1e-14 and ran P_500 out of max_iter
        g = relabelled(random.Random(n), n, [(i, i + 1) for i in range(n - 1)])
        report = spectral_radius(g, tol)
        self.assert_contract(g, report, tol)
        assert report.iterations < 3 * self.T + n

    def test_corpus_reports_past_the_handover(self):
        # backs the digest of TestSpectralRadius.test_reports_pinned where
        # it depends on the Lanczos phase: P_23 to P_40 end there
        switched = 0
        for g in report_corpus():
            report = spectral_radius(g)
            if report.iterations > self.T:
                assert abs(report.lam - numpy_radius(g)) <= 1e-12
                self.assert_contract(g, report)
                switched += 1
        assert switched >= 18

    def test_trees_and_caterpillars_against_numpy(self):
        rng = random.Random(24)
        graphs = [prufer_tree(rng, rng.randint(40, 200)) for _ in range(12)]
        graphs += [caterpillar(rng, rng.randint(20, 60), 2) for _ in range(12)]
        switched = 0
        for g in graphs:
            assert g.n <= 200
            report = spectral_radius(g)
            assert abs(report.lam - numpy_radius(g)) <= 1e-12
            if report.iterations > self.T:
                self.assert_contract(g, report)
                switched += 1
        assert switched >= 6

    def test_reports_wherever_the_reference_loop_does(self):
        switched = 0
        for g in sparse_graphs(11):
            for tol in TestAgainstReferenceLoop.TOLS:
                try:
                    report = spectral.spectral_radius(g, tol, 3000)
                except ConvergenceError:
                    with pytest.raises(ConvergenceError):
                        reference_power_iteration(g, tol, 3000, None)
                    continue
                if report.iterations > self.T:
                    self.assert_contract(g, report, tol)
                    switched += 1
        assert switched >= 10


class TestHongBound:
    def test_formula_values(self):
        # f(0) = -1/2 + sqrt(20 + 1/4) = 4 exactly for p=6, q=10
        assert hong_bound_formula(0, 6, 10) == pytest.approx(4.0, abs=1e-12)
        assert hong_bound_formula(1, 6, 10) == pytest.approx(math.sqrt(15), abs=1e-12)

    def test_formula_strictly_decreasing_sample(self):
        # real domain of the (6,10) curve is x <= 11 - 2*sqrt(10) ~ 4.68
        vals = [hong_bound_formula(x, 6, 10) for x in range(5)]
        assert all(vals[i] > vals[i + 1] for i in range(4))

    def test_formula_monotone_on_grids(self):
        # grids chosen inside the real domain: 2q >= p(p-1) - p^2/4 keeps
        # the radicand nonnegative up to x = p-1
        for p, q in [(6, 12), (8, 24), (10, 45), (12, 50), (9, 30)]:
            xs = [i * (p - 1) / 99.0 for i in range(100)]
            vals = [hong_bound_formula(x, p, q) for x in xs]
            assert all(vals[i + 1] <= vals[i] + 1e-9 for i in range(99))

    def test_formula_domain_errors(self):
        with pytest.raises(ValueError):
            hong_bound_formula(2, 4, 7)  # q too large for p=4
        with pytest.raises(ValueError):
            hong_bound_formula(-1, 6, 10)
        with pytest.raises(ValueError):
            hong_bound_formula(6, 6, 10)  # x > p-1
        with pytest.raises(ValueError):
            hong_bound_formula(5, 6, 10)  # radicand negative: 20-30+9 < 0

    def test_bound_dominates_radius(self):
        rng = random.Random(17)
        checked = 0
        while checked < 40:
            n = rng.randint(2, 12)
            g = random_graph(n, 0.5, rng)
            if g.n == 0 or g.min_degree() < 1:
                continue
            assert hong_bound(g) >= spectral_radius(g).lam - 1e-8
            checked += 1

    def test_equality_cases(self):
        # regular: K_4 and C_5; bidegreed {min degree, n-1}: the star K_{1,3}
        for g in [complete_graph(4), cycle_graph(5), complete_bipartite(1, 3)]:
            assert hong_bound(g) == pytest.approx(spectral_radius(g).lam, abs=1e-9)
        # P_4 is neither: the bound must be strict
        g = path_graph(4)
        assert hong_bound(g) > spectral_radius(g).lam + 1e-3

    def test_min_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            hong_bound(disjoint_union(empty_graph(1), complete_graph(3)))


class TestQuotient:
    def test_quotient_entries(self):
        g = complete_bipartite(2, 3)
        quo = quotient_matrix(g, [[0, 1], [2, 3, 4]])
        assert quo.entries == ((0, 3), (2, 0))

    def test_not_equitable_rejected(self):
        g = path_graph(3)
        with pytest.raises(ValueError, match="not equitable"):
            quotient_matrix(g, [[0, 1], [2]])

    def test_empty_part_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            quotient_matrix(complete_graph(3), [[0, 1, 2], []])

    def test_cover_and_disjoint_required(self):
        with pytest.raises(ValueError):
            quotient_matrix(complete_graph(3), [[0, 1]])
        with pytest.raises(ValueError):
            quotient_matrix(complete_graph(3), [[0, 1], [1, 2]])

    def test_matches_power_iteration_on_orbits(self):
        # C_6 with the parts given by the bipartition classes: numpy's
        # general eigensolver on the exact quotient gives the radius
        g = cycle_graph(6)
        quo = quotient_matrix(g, [[0, 2, 4], [1, 3, 5]])
        lam = max(np.linalg.eigvals(np.array(quo.entries, dtype=float)).real)
        assert lam == pytest.approx(spectral_radius(g).lam, abs=1e-9)
