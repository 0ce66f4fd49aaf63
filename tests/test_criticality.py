"""Deficiency deciders vs independent oracles.

The deciders are cross-validated three ways: against hand-computed frozen
values on named graphs, against the brute-force definitional route (delete
every k-set, run the witness oracles), and against naive unpruned
re-implementations written here with plain dict/list code so a bug in the
bitmask machinery cannot hide.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import replace
import random
import tracemalloc

import pytest

from factor_spectra import criticality, factors, harness
from factor_spectra.criticality import (
    SUBSET_SWEEP_CAP,
    DeficiencyCertificate,
    FactorParams,
    certificate_at,
    critical_by_definition,
    decide,
    definition_oracle,
    fractional_deficiency,
    is_abk_critical,
    is_fractional_abk_critical,
    is_rk_critical,
    low_degree_set,
    parity_deficiency,
    recheck_certificate,
    route_params,
)
from factor_spectra.graphs import (
    Graph,
    bits,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    enumerate_graphs,
    isomorphic,
    path_graph,
)
from factor_spectra.factors import find_r_factor

P120 = FactorParams(1, 2, 0)
P121 = FactorParams(1, 2, 1)


# -- naive re-implementations (independent oracles) ----------------------------


def naive_components(g: Graph, removed: set[int]) -> list[set[int]]:
    left = set(range(g.n)) - removed
    comps = []
    while left:
        start = min(left)
        comp = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for v in g.neighbors(u):
                if v in left and v not in comp:
                    comp.add(v)
                    stack.append(v)
        comps.append(comp)
        left -= comp
    return comps


def naive_odd_components(g: Graph, x: set[int], y: set[int], r: int) -> int:
    odd = 0
    for comp in naive_components(g, x | y):
        e_to_y = sum(1 for u in comp for v in g.neighbors(u) if v in y)
        if (r * len(comp) + e_to_y) % 2 == 1:
            odd += 1
    return odd


def naive_low_set(g: Graph, s: list[int], threshold: int) -> tuple[int, ...]:
    """T: the vertices outside S with at most `threshold` neighbours outside S."""
    outside = [v for v in range(g.n) if v not in s]
    return tuple(
        x for x in outside if sum(1 for v in g.neighbors(x) if v not in s) <= threshold
    )


def naive_deficiency(g: Graph, s: list[int], a: int, b: int, k: int) -> int:
    """a|T| - sum_T d_{G-S}(x) - b|S| + bk with T at threshold a - 1."""
    degree = {
        x: sum(1 for v in g.neighbors(x) if v not in s) for x in naive_low_set(g, s, a - 1)
    }
    return sum(a - d for d in degree.values()) - b * len(s) + b * k


def naive_parity_first_violation(g: Graph, r: int, k: int):
    for xs in range(k, g.n + 1):
        for x in itertools.combinations(range(g.n), xs):
            rest = [v for v in range(g.n) if v not in x]
            for ys in range(len(rest) + 1):
                for y in itertools.combinations(rest, ys):
                    dsum = sum(
                        1
                        for u in y
                        for v in g.neighbors(u)
                        if v not in x
                    )
                    h = naive_odd_components(g, set(x), set(y), r)
                    surplus = r * len(x) - r * len(y) + dsum - h - r * k
                    if surplus < 0:
                        return x, y, -surplus
    return None


def reference_sweep(g: Graph, route: str, params: FactorParams):
    """The integral and fractional subset sweep with no row filter, kept
    as the oracle for `criticality._sweep`: every S with |S| >= k, by size
    then lex, each against every adjacency row.  The kernel and the subset
    order are copied in, so the oracle does not move with the module."""
    a, b, k = params.a, params.b, params.k
    if g.n < a + k + 1:
        raise ValueError(f"need n >= a + k + 1 = {a + k + 1}, got n={g.n}")
    if g.n > SUBSET_SWEEP_CAP:
        raise ValueError(f"n={g.n} exceeds the sweep cap {SUBSET_SWEEP_CAP}")
    pairs = [(1 << v, row) for v, row in enumerate(g.adj)]
    singletons = [1 << v for v in range(g.n)]
    for s_size in range(k, g.n + 1):
        for combo in itertools.combinations(singletons, s_size):
            s_mask = sum(combo)
            keep = ~s_mask
            total = b * (k - s_size)
            for bit, row in pairs:
                if not s_mask & bit:
                    d = (row & keep).bit_count()
                    if d < a:
                        total += a - d
            if total > 0:
                return certificate_at(g, route, params, tuple(bits(s_mask)))
    return None


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def random_pair(g: Graph, rng: random.Random) -> tuple[set[int], set[int]]:
    """Random disjoint X and Y over the vertices of g."""
    verts = list(range(g.n))
    rng.shuffle(verts)
    xs = rng.randint(0, g.n)
    ys = rng.randint(0, g.n - xs)
    return set(verts[:xs]), set(verts[xs : xs + ys])


# -- frozen values ---------------------------------------------------------------


class TestDeficiencies:
    def test_star_center_integral(self):
        g = complete_bipartite(1, 3)  # center is vertex 0
        assert low_degree_set(g, [0], 0) == (1, 2, 3)
        assert certificate_at(g, "integral", P120, [0]).deficiency == 1

    def test_star_center_fractional(self):
        g = complete_bipartite(1, 3)
        # b|S| - a|T| + sum = 2 - 3 + 0 = -1, so deficiency = 0 - (-1) = 1
        assert fractional_deficiency(g, [0], P120) == 1

    def test_matches_naive_random(self):
        rng = random.Random(41)
        for _ in range(10000):
            n = rng.randint(2, 9)
            g = random_graph(n, rng.random(), rng)
            a = rng.randint(1, 3)
            b = a + rng.randint(1, 2)
            k = rng.randint(0, 2)
            s = [v for v in range(n) if rng.random() < 0.4]
            if len(s) < k:
                continue
            params = FactorParams(a, b, k)
            expected = naive_deficiency(g, s, a, b, k)
            assert fractional_deficiency(g, s, params) == expected
            for route, threshold in (("integral", a - 1), ("fractional", a)):
                cert = certificate_at(g, route, params, s)
                assert cert.deficiency == expected
                assert cert.t_set == naive_low_set(g, s, threshold)

    def test_requires_b_gt_a(self):
        with pytest.raises(ValueError, match="integral characterization needs b > a"):
            certificate_at(complete_graph(4), "integral", FactorParams(2, 2, 0), [0])

    def test_requires_s_at_least_k(self):
        with pytest.raises(ValueError):
            certificate_at(complete_graph(4), "integral", P121, [])

    def test_low_degree_set_thresholds(self):
        g = path_graph(4)
        assert low_degree_set(g, [], 1) == (0, 3)
        assert low_degree_set(g, [1], 0) == (0,)
        assert low_degree_set(g, [1], 1) == (0, 2, 3)


def odd_components(g: Graph, x, y, r: int) -> int:
    """The module's h(X, Y), from vertex lists."""
    x_mask, y_mask = (sum(1 << v for v in vs) for vs in (x, y))
    return criticality._count_odd_components_mask(g.adj, g.n, x_mask, y_mask, r)


class TestOddComponents:
    def test_whole_graph_even(self):
        assert odd_components(cycle_graph(6), [], [], 2) == 0
        assert odd_components(complete_graph(4), [], [], 1) == 0

    def test_singletons(self):
        g = path_graph(3)
        assert odd_components(g, [1], [], 2) == 0  # 2*1+0 even
        assert odd_components(g, [1], [], 1) == 2  # 1*1+0 odd, twice
        assert odd_components(g, [], [1], 2) == 2  # 2*1+1 odd, twice

    def test_matches_naive_random(self):
        rng = random.Random(47)
        for _ in range(300):
            n = rng.randint(1, 8)
            g = random_graph(n, 0.4, rng)
            x, y = random_pair(g, rng)
            r = rng.randint(1, 3)
            assert odd_components(g, x, y, r) == naive_odd_components(g, x, y, r)

    def test_disjointness_enforced(self):
        with pytest.raises(ValueError, match="disjoint"):
            parity_deficiency(complete_graph(3), [0], [0], 2, 0)


class TestParityFacts:
    """The two facts the pair sweep's pruning rests on, checked on random
    pairs: Tutte's parity lemma, and for even r the edge cap on h."""

    def test_deficiency_parity_lemma(self):
        # delta(X, Y) = r|Y| - r|X| - sum_Y d_{G-X} + h is congruent to r n
        # (mod 2), so the deficiency, delta + rk, is congruent to r(n - k)
        rng = random.Random(61)
        for _ in range(400):
            g = random_graph(rng.randint(1, 9), rng.choice([0.2, 0.5, 0.8]), rng)
            x, y = random_pair(g, rng)
            r = rng.choice([2, 3, 4])
            k = rng.randint(0, len(x))
            assert parity_deficiency(g, x, y, r, k) % 2 == r * (g.n - k) % 2

    def test_even_r_odd_components_capped_by_edges_to_rest(self):
        # for even r a counted component C has e(Y, C) odd, so at least one
        # edge to Y: h <= e(Y, R) with R = V - X - Y, and h <= |R|
        rng = random.Random(67)
        for _ in range(400):
            g = random_graph(rng.randint(1, 9), rng.choice([0.2, 0.5, 0.8]), rng)
            x, y = random_pair(g, rng)
            rest = set(range(g.n)) - x - y
            e_yr = sum(1 for u in y for v in g.neighbors(u) if v in rest)
            for r in (2, 4):
                assert odd_components(g, x, y, r) <= min(e_yr, len(rest))


class TestIntegralDecider:
    def test_cycle_critical(self):
        assert is_abk_critical(cycle_graph(5), P120) is None

    def test_star_not_critical_with_certificate(self):
        cert = is_abk_critical(complete_bipartite(1, 3), P120)
        assert cert is not None
        assert cert.kind == "integral"
        assert cert.s_set == (0,)
        assert cert.t_set == (1, 2, 3)
        assert cert.deficiency == 1
        assert recheck_certificate(complete_bipartite(1, 3), cert, params=P120)

    def test_first_violation_is_canonical(self):
        # star with center relabeled to 3: earlier singletons do not violate
        g = Graph.from_edges(4, [(3, 0), (3, 1), (3, 2)])
        cert = is_abk_critical(g, P120)
        assert cert.s_set == (3,)

    def test_complete_deleting_one(self):
        assert is_abk_critical(complete_graph(5), P121) is None

    def test_a_equals_b_routed(self):
        with pytest.raises(ValueError, match="is_rk_critical"):
            is_abk_critical(complete_graph(5), FactorParams(2, 2, 0))

    def test_too_small_n(self):
        with pytest.raises(ValueError):
            is_abk_critical(complete_graph(2), P121)

    def test_cap(self):
        with pytest.raises(ValueError):
            is_abk_critical(complete_graph(21), P120)

    def test_sweep_memory_stays_bounded(self):
        # the sweep enumerates deletion sets lazily: on C16 it evaluates
        # every S with |S| >= 2, 2^16 - 17 of them, in well under 1 MB, and
        # nothing may outlive the call (K16 would leave it only 17 sets)
        g = cycle_graph(16)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            assert is_abk_critical(g, P121) is None
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - before < 1 << 20
        assert after - before < 1 << 12

    def test_matches_definition_small(self):
        for g in enumerate_graphs(4, connected_only=True):
            want = critical_by_definition(g, P120, "integral")
            got = is_abk_critical(g, P120) is None
            assert got == want

    def test_edge_addition_preserves_criticality(self):
        for g in enumerate_graphs(5, connected_only=True):
            if is_abk_critical(g, P120) is None:
                for u in range(5):
                    for v in range(u + 1, 5):
                        if not g.has_edge(u, v):
                            assert is_abk_critical(g.with_edge(u, v), P120) is None


class TestFractionalDecider:
    def test_allows_a_equals_b(self):
        assert is_fractional_abk_critical(cycle_graph(5), FactorParams(1, 1, 0)) is None

    def test_star_not_critical(self):
        cert = is_fractional_abk_critical(complete_bipartite(1, 3), P120)
        assert cert is not None and cert.kind == "fractional"
        assert cert.s_set == (0,) and cert.deficiency == 1
        assert recheck_certificate(complete_bipartite(1, 3), cert, params=P120)

    def test_k5_delete_one(self):
        assert is_fractional_abk_critical(complete_graph(5), P121) is None

    def test_matches_definition_small(self):
        for a, b in [(1, 1), (1, 2), (2, 2)]:
            params = FactorParams(a, b, 0)
            for g in enumerate_graphs(4, connected_only=True):
                if g.n < a + 1:
                    continue
                want = critical_by_definition(g, params, "fractional")
                got = is_fractional_abk_critical(g, params) is None
                assert got == want

    def test_integral_critical_implies_fractional_critical(self):
        for k in (0, 1):
            params = FactorParams(1, 2, k)
            for g in enumerate_graphs(5, connected_only=True):
                if g.n < 2 + k:
                    continue
                if is_abk_critical(g, params) is None:
                    assert is_fractional_abk_critical(g, params) is None


class TestSubsetSweep:
    """`decide` on the integral and fractional routes against
    `reference_sweep`: the same certificate JSON, the same None, or the
    same ValueError message."""

    # (a, b, k); the integral route only where b > a
    PARAMS = (
        (1, 2, 0), (1, 2, 1), (1, 2, 2), (2, 3, 0), (2, 3, 1), (1, 3, 1),
        (1, 1, 0), (2, 2, 1), (3, 3, 0),
    )

    @staticmethod
    def outcome(fn, g: Graph, route: str, params: FactorParams) -> str:
        try:
            cert = fn(g, route, params)
        except ValueError as exc:
            return f"ValueError: {exc}"
        return json.dumps(None if cert is None else cert.to_json())

    def same(self, g: Graph, route: str, params: FactorParams) -> str:
        got = self.outcome(decide, g, route, params)
        assert got == self.outcome(reference_sweep, g, route, params), (g.adj, route, params)
        if got.startswith("ValueError"):
            return "error"
        return "critical" if got == "null" else "refuted"

    def routes(self, g: Graph, params) -> list[str]:
        return [
            self.same(g, route, FactorParams(*nums))
            for nums in params
            for route in ("integral", "fractional")
            if route == "fractional" or nums[1] > nums[0]
        ]

    def test_every_graph_up_to_five(self):
        kinds = set()
        for n in range(6):
            for g in enumerate_graphs(n):
                kinds.update(self.routes(g, self.PARAMS))
        assert kinds == {"critical", "refuted", "error"}

    def test_connected_graphs_on_six(self):
        # the decider-cross-validation grid items on the sweep
        kinds = set()
        for g in enumerate_graphs(6, connected_only=True):
            kinds.add(self.same(g, "integral", FactorParams(2, 3, 0)))
            kinds.add(self.same(g, "fractional", FactorParams(2, 2, 1)))
        assert kinds == {"critical", "refuted"}

    def test_seeded_random_graphs(self):
        # sparse graphs refute early, dense ones sweep every set
        rng = random.Random(2035)
        kinds = set()
        for _ in range(30):
            n = rng.randint(7, 16)
            g = random_graph(n, rng.choice([0.2, 0.35, 0.5, 0.7, 0.85, 0.95]), rng)
            kinds.update(self.routes(g, [rng.choice(self.PARAMS)]))
        assert kinds == {"critical", "refuted"}

    def test_complete_graphs_and_cycles(self):
        kinds = set()
        for n in (*range(1, 13), SUBSET_SWEEP_CAP + 1):
            graphs = [complete_graph(n)] + ([cycle_graph(n)] if n >= 3 else [])
            for g in graphs:
                kinds.update(self.routes(g, self.PARAMS))
        assert kinds == {"critical", "refuted", "error"}

    def test_certificates_pinned(self):
        # every certificate (or None) over a seeded corpus, byte for byte:
        # a sweep change that moves any first violation moves this digest
        rng = random.Random(2036)
        digest = hashlib.sha256()
        for _ in range(150):
            n = rng.randint(5, 11)
            g = random_graph(n, rng.choice([0.3, 0.5, 0.7, 0.9]), rng)
            for nums in ((1, 2, 0), (1, 2, 1), (2, 3, 0), (2, 3, 1)):
                for route in ("integral", "fractional"):
                    cert = decide(g, route, FactorParams(*nums))
                    digest.update(json.dumps(None if cert is None else cert.to_json()).encode())
            cert = decide(g, "fractional", FactorParams(2, 2, 1))
            digest.update(json.dumps(None if cert is None else cert.to_json()).encode())
        assert digest.hexdigest() == (
            "3917d87b783d758f674582cadc97c39c3c4c798ff226376fe07b78ea21dc5f1a"
        )


class TestParityDecider:
    def test_cycle_and_complete_critical(self):
        assert is_rk_critical(cycle_graph(4), 2, 0) is None
        assert is_rk_critical(complete_graph(5), 2, 0) is None
        assert is_rk_critical(complete_graph(5), 2, 1) is None

    def test_star_not_critical(self):
        cert = is_rk_critical(complete_bipartite(1, 3), 2, 0)
        assert cert is not None and cert.kind == "parity"
        assert recheck_certificate(complete_bipartite(1, 3), cert, FactorParams(2, 2, 0))

    def test_path_certificate_value(self):
        # first violation for P_3 is X = (), Y = (0): the rest is one
        # component with parity 2*2 + 1 odd, so surplus 0 - 2 + 1 - 1 = -2
        cert = is_rk_critical(path_graph(3), 2, 0)
        assert cert.s_set == () and cert.t_set == (0,)
        assert cert.deficiency == 2
        assert parity_deficiency(path_graph(3), (), (0,), 2, 0) == 2
        # the midpoint violates too, just later in the order
        assert parity_deficiency(path_graph(3), (), (1,), 2, 0) == 2

    def test_matches_naive_first_violation(self):
        # dense, near-regular graphs are where the sweep's bounds skip most
        rng = random.Random(53)
        for _ in range(120):
            n = rng.randint(4, 8)
            g = random_graph(n, rng.choice([0.3, 0.5, 0.8, 0.95]), rng)
            r = rng.choice([2, 3, 4])
            k = rng.choice([0, 1, 2])
            if n < r + k + 1:
                continue
            want = naive_parity_first_violation(g, r, k)
            cert = is_rk_critical(g, r, k)
            if want is None:
                assert cert is None
            else:
                assert cert is not None
                assert (cert.s_set, cert.t_set, cert.deficiency) == want

    def test_matches_definition_small(self):
        for n in (4, 5):
            for g in enumerate_graphs(n, connected_only=True):
                for k in (0, 1):
                    want = critical_by_definition(g, FactorParams(2, 2, k), "parity")
                    got = is_rk_critical(g, 2, k) is None
                    assert got == want

    def test_verdicts_pinned(self):
        # every certificate (or None) over a seeded corpus, byte for byte:
        # a pruning change that moves any first violation moves this digest
        rng = random.Random(2026)
        digest = hashlib.sha256()
        for _ in range(300):
            n = rng.randint(5, 11)
            g = random_graph(n, rng.choice([0.4, 0.6, 0.8, 0.95]), rng)
            for r, k in ((2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (4, 0)):
                if n >= r + k + 1:
                    cert = is_rk_critical(g, r, k)
                    digest.update(json.dumps(None if cert is None else cert.to_json()).encode())
        assert digest.hexdigest() == (
            "e2c025bbc3231002dc78abd20801861ca067c4f8472bbbe57b8538d82c4d6ea8"
        )

    def test_verdicts_pinned_at_explorer_order(self, monkeypatch):
        # every certificate (or None) at n = 12, the explorer's order: the
        # graphs explore_conjecture(2, 0, 12, 1500, s) decides for s = 0-2,
        # then 40 seeded dense random graphs at (2, 0) and (2, 1)
        sent = []
        repeats = set()  # isomorphic to a graph found critical earlier in its run
        decide = harness.is_rk_critical

        def recording(g, r, k):
            earlier = [h for h, _, _, cert in sent[run_start:] if cert is None]
            if any(isomorphic(g, h) for h in earlier):
                repeats.add(len(sent))
            sent.append((g, r, k, decide(g, r, k)))
            return sent[-1][-1]

        monkeypatch.setattr(harness, "is_rk_critical", recording)
        for seed in range(3):
            run_start = len(sent)
            harness.explore_conjecture(2, 0, 12, 1500, seed)
        monkeypatch.undo()
        rng = random.Random(2027)
        for _ in range(40):
            g = random_graph(12, rng.choice([0.6, 0.75, 0.9]), rng)
            sent += [(g, r, k, is_rk_critical(g, r, k)) for r, k in ((2, 0), (2, 1))]
        digest = hashlib.sha256()
        for g, r, k, cert in sent:
            digest.update(json.dumps([g.adj, r, k, None if cert is None else cert.to_json()]).encode())
        assert len(sent) == 234
        assert digest.hexdigest() == (
            "dd63e8783312180da1a6a70a4efb647a7430ef2846d3fe11f357956275c69f01"
        )
        # criticality is an isomorphism invariant, so every repeat is critical
        assert len(repeats) == 69
        assert all(sent[i][3] is None for i in repeats)

    def test_bounds_skip_complete_graph_sweep(self, monkeypatch):
        # K12 is (2, 0)-critical; the parity lemma and the edge cap on h
        # leave the sweep only the twelve singleton Y with X empty to count
        calls = []
        counter = criticality._count_odd_components_mask

        def counting(*args):
            calls.append(args)
            return counter(*args)

        monkeypatch.setattr(criticality, "_count_odd_components_mask", counting)
        # the sweep itself: is_rk_critical settles K12 on its r-factor
        assert criticality._pair_sweep(complete_graph(12), 2, 0) is None
        assert len(calls) <= 12

    def test_pair_sweep_agrees_with_r_factor_oracle(self):
        # the sweep finds no violation exactly when G - K has an r-factor
        # for every k-set K, on every connected graph with n <= 6 and on
        # seeded random graphs with n = 7-12
        corpus = [g for n in range(1, 7) for g in enumerate_graphs(n, connected_only=True)]
        rng = random.Random(2031)
        corpus += [random_graph(rng.randint(7, 12), rng.choice([0.3, 0.5, 0.7, 0.9]), rng) for _ in range(300)]
        verdicts = set()
        for g in corpus:
            for r, k in ((2, 0), (2, 1), (3, 0), (3, 1), (4, 0)):
                if g.n < r + k + 1:
                    continue
                factored = all(
                    find_r_factor(g.delete_vertices(kill), r) is not None
                    for kill in itertools.combinations(range(g.n), k)
                )
                assert (criticality._pair_sweep(g, r, k) is None) == factored
                verdicts.add(factored)
        assert verdicts == {True, False}

    def test_is_rk_critical_sweeps_only_refutable_graphs(self, monkeypatch):
        # the sweep keeps no shortcut for critical graphs, since
        # is_rk_critical settles those on witnesses: every sweep it starts
        # must end on a violating pair
        sweeps = []
        sweep = criticality._pair_sweep

        def recording(g, r, k):
            sweeps.append((g, r, k, sweep(g, r, k)))
            return sweeps[-1][-1]

        monkeypatch.setattr(criticality, "_pair_sweep", recording)
        for n in range(3, 7):
            for g in enumerate_graphs(n, connected_only=True):
                for r, k in ((2, 0), (2, 1)):
                    if n >= r + k + 1:
                        is_rk_critical(g, r, k)
        rng = random.Random(2026)  # the corpus of test_verdicts_pinned
        for _ in range(300):
            n = rng.randint(5, 11)
            g = random_graph(n, rng.choice([0.4, 0.6, 0.8, 0.95]), rng)
            for r, k in ((2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (4, 0)):
                if n >= r + k + 1:
                    is_rk_critical(g, r, k)
        for seed in range(3):
            harness.explore_conjecture(2, 0, 12, 1500, seed)
        assert sweeps
        for g, r, k, cert in sweeps:
            assert cert is not None and cert.violating, (g.adj, r, k)

    def test_definition_needs_no_r_factor_oracle(self, monkeypatch):
        # criteria 06-08 compare is_rk_critical with critical_by_definition,
        # so the two share no factor oracle
        def refuse(*args):
            raise AssertionError("critical_by_definition reached find_r_factor")

        monkeypatch.setattr(criticality, "find_r_factor", refuse)
        monkeypatch.setattr(factors, "find_r_factor", refuse)
        assert critical_by_definition(complete_graph(6), FactorParams(2, 2, 1), "parity")
        assert not critical_by_definition(cycle_graph(6), FactorParams(2, 2, 1), "parity")

    def test_r_below_two_rejected(self):
        with pytest.raises(ValueError):
            is_rk_critical(complete_graph(4), 1, 0)

    def test_pair_cap(self):
        with pytest.raises(ValueError):
            is_rk_critical(complete_graph(13), 2, 0)


class TestCertificates:
    def test_json_round_trip(self):
        cert = is_abk_critical(complete_bipartite(1, 3), P120)
        again = DeficiencyCertificate.from_json(cert.to_json())
        assert again == cert
        assert recheck_certificate(complete_bipartite(1, 3), again, params=P120)

    def test_recheck_detects_tampering(self):
        cert = is_abk_critical(complete_bipartite(1, 3), P120)
        forged = DeficiencyCertificate(
            kind=cert.kind,
            s_set=cert.s_set,
            t_set=cert.t_set,
            deficiency=cert.deficiency + 1,
        )
        assert not recheck_certificate(complete_bipartite(1, 3), forged, params=P120)

        parity = is_rk_critical(complete_bipartite(1, 3), 2, 0)
        raised = DeficiencyCertificate(
            kind=parity.kind,
            s_set=parity.s_set,
            t_set=parity.t_set,
            deficiency=parity.deficiency + 1,
        )
        assert recheck_certificate(complete_bipartite(1, 3), parity, FactorParams(2, 2, 0))
        assert not recheck_certificate(complete_bipartite(1, 3), raised, FactorParams(2, 2, 0))

        frac = is_fractional_abk_critical(complete_bipartite(1, 3), P120)
        dropped = DeficiencyCertificate(
            kind=frac.kind,
            s_set=frac.s_set,
            t_set=frac.t_set[1:],
            deficiency=frac.deficiency,
        )
        assert recheck_certificate(complete_bipartite(1, 3), frac, params=P120)
        assert not recheck_certificate(complete_bipartite(1, 3), dropped, params=P120)

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown certificate kind 'bogus'"):
            DeficiencyCertificate.from_json(
                {"kind": "bogus", "s_set": [], "t_set": [], "deficiency": 1}
            )
        with pytest.raises(ValueError, match="unknown certificate kind 'bogus'"):
            DeficiencyCertificate("bogus", (), (), 1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("deficiency", 1.9),
            ("deficiency", "1"),
            ("deficiency", True),
            ("s_set", [False]),
            ("t_set", [1.0, 2, 3]),
            ("t_set", [True, 2, 3]),
        ],
    )
    def test_non_int_entries_rejected(self, field, value):
        # each tampered form compares or converts equal to the true
        # certificate of K_{1,3}, deficiency 1 at S = {0}, T = {1, 2, 3}
        cert = is_abk_critical(complete_bipartite(1, 3), P120)
        assert cert.to_json() == {"kind": "integral", "s_set": [0], "t_set": [1, 2, 3], "deficiency": 1}
        with pytest.raises(ValueError, match="is not an int"):
            DeficiencyCertificate.from_json({**cert.to_json(), field: value})
        # built in Python, not read from JSON: recheck_certificate compares
        # with ==, so such a certificate would recheck as True
        tampered = value if field == "deficiency" else tuple(value)
        with pytest.raises(ValueError, match="is not an int"):
            replace(cert, **{field: tampered})


class TestDefinitionalRoute:
    def test_k5_integral(self):
        assert critical_by_definition(complete_graph(5), P121, "integral")

    def test_star_not(self):
        assert not critical_by_definition(complete_bipartite(1, 3), P120, "integral")

    def test_cycle_fractional_11(self):
        assert critical_by_definition(cycle_graph(5), FactorParams(1, 1, 0), "fractional")
        assert not critical_by_definition(cycle_graph(5), FactorParams(1, 1, 0), "integral")

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            critical_by_definition(complete_graph(3), P120, "half")

    @pytest.mark.parametrize(
        "mode, params",
        [
            ("integral", P121),
            ("fractional", FactorParams(2, 2, 1)),
            ("fractional", FactorParams(1, 1, 2)),
            ("parity", FactorParams(2, 2, 1)),
        ],
    )
    def test_memoized_verdicts_match_one_graph_calls(self, mode, params):
        # one definition_oracle over the whole corpus reuses answers across
        # graphs; every verdict still equals the memo-free one-graph call
        critical = definition_oracle(params, mode)
        verdicts = set()
        for n in range(1, 6):
            for g in enumerate_graphs(n, connected_only=True):
                got = critical(g)
                assert got == critical_by_definition(g, params, mode), (g.adj, mode)
                verdicts.add(got)
        assert verdicts == {True, False}


# -- route checks ------------------------------------------------------------------

INTEGRAL_NEEDS_B_GT_A = (
    "integral characterization needs b > a; for a == b == r use the parity "
    "route (is_rk_critical, or the rk verb)"
)

# shape -> (route, params, the error every route entry point raises)
BAD_ROUTES = {
    "unknown": ("bogus", P120, "unknown route 'bogus'"),
    "integral b == a": ("integral", FactorParams(2, 2, 0), INTEGRAL_NEEDS_B_GT_A),
    "parity a != b": ("parity", P120, "the parity route needs a == b == r, got a=1, b=2"),
    "parity r < 2": ("parity", FactorParams(1, 1, 0), "parity characterization needs r >= 2, got r=1"),
}

ROUTE_ENTRY_POINTS = {
    "certificate_at": lambda route, p: certificate_at(complete_graph(4), route, p, [0]),
    "decide": lambda route, p: decide(complete_graph(4), route, p),
    "critical_by_definition": lambda route, p: critical_by_definition(complete_graph(4), p, route),
    "definition_oracle": lambda route, p: definition_oracle(p, route),
}


@pytest.mark.parametrize(
    "shape, entry",
    [
        (shape, entry)
        for shape in BAD_ROUTES
        for entry in ROUTE_ENTRY_POINTS
        # the definitional integral mode takes a == b (test_cycle_fractional_11)
        if shape != "integral b == a" or entry in ("certificate_at", "decide")
    ],
)
def test_bad_route_rejected_with_one_message(shape, entry):
    route, params, message = BAD_ROUTES[shape]
    with pytest.raises(ValueError) as info:
        ROUTE_ENTRY_POINTS[entry](route, params)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "route, nums, message",
    [
        ("bogus", (1, 2, 0), "unknown route 'bogus'"),
        ("integral", (2, 2, 0), INTEGRAL_NEEDS_B_GT_A),
        ("parity", (1, 0), "parity characterization needs r >= 2, got r=1"),
        # r is checked before FactorParams, which would complain about a
        ("parity", (0, 0), "parity characterization needs r >= 2, got r=0"),
        ("parity", (2, -1), "need k >= 0, got k=-1"),
        # the route is checked before the count of numbers
        ("bogus", (2, 0), "unknown route 'bogus'"),
        ("parity", (2, 2, 0), "the parity route takes (r, k), got 3 numbers"),
        ("integral", (1, 2), "the integral route takes (a, b, k), got 2 numbers"),
    ],
)
def test_route_params_rejects_bad_shapes(route, nums, message):
    with pytest.raises(ValueError) as info:
        route_params(route, *nums)
    assert str(info.value) == message
