"""The four workloads.  Each one builds its inputs from the seed (set-up),
then serves calls one at a time: ``call(i)`` makes the i-th call into the
package and returns what the checks need.  Calls go through module
attributes (``criticality.is_abk_critical``), so the traced run sees them.
Calls come in rounds with a fixed mix of input kinds and sizes, and a run
ends only between rounds (``round_start``), so every run measures the same
mix whatever the machine's speed; only the graphs change with the seed.

Why each workload exists, and which layers it loads, is in README.md.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass

from factor_spectra import criticality, families, graphs, harness, spectral

import inputs


@dataclass
class Call:
    items: int  # items attempted in this call
    failed: int  # items that raised
    output: object  # what the checks need


class Workload:
    def round_start(self, i: int) -> bool:
        """Whether call i begins a round; a run may end only before such a call."""
        return True


def _histogram(sizes) -> dict[int, int]:
    return dict(sorted(Counter(sizes).items()))


class Certify(Workload):
    """Decide dense graphs that are nearly always critical, so each sweep
    enumerates every set; one item is one (graph, route) decision."""

    ROUTES = (
        ("integral", (1, 2, 0)),
        ("integral", (2, 3, 1)),
        ("fractional", (1, 2, 0)),
        ("fractional", (2, 3, 1)),
    )
    PARITY = ((2, 0), (2, 1))
    # One sub-round decides, for each (route, params) pair, this many graphs
    # of each order n; the orders in ROTATING only for one pair, taken in
    # turn from sub-round to sub-round; and one parity item at each of
    # n = 10, 11, 12.  Sweep time doubles with n, so these counts put the
    # median item inside the n = 14 sweeps and the tail (10 samples above
    # it) inside the n = 17 sweeps, away from a jump between two sizes.  A
    # round is four sub-rounds, so that every pair gets each rotating order
    # once and every round has the same mix; it takes about 10 s.
    COPIES = {13: 1, 14: 3, 17: 1}
    ROTATING = (15, 16, 18)
    PARITY_SIZES = (10, 11, 12)
    SUB_ROUNDS = 16
    # Edge probability per route.  Sweep cost depends on density, so it is
    # fixed; at these densities a parity item now and then refutes.
    DENSITY = {"integral": 0.7, "fractional": 0.7, "parity": 0.6}

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.items = []  # (route, params, n, edges, graph6)
        for r in range(self.SUB_ROUNDS):
            slots = [(route, params, n) for route, params in self.ROUTES for n, c in self.COPIES.items() for _ in range(c)]
            slots += [(*self.ROUTES[r % len(self.ROUTES)], n) for n in self.ROTATING]
            slots += [("parity", self.PARITY[r % 2], n) for n in self.PARITY_SIZES]
            for route, params, n in slots:
                edges = inputs.dense_connected(rng, n, self.DENSITY[route])
                self.items.append((route, params, n, edges, inputs.encode_graph6(n, edges)))
        self.round = len(self.items) // self.SUB_ROUNDS * len(self.ROUTES)

    def round_start(self, i: int) -> bool:
        return i % self.round == 0

    def call(self, i: int) -> Call:
        route, params, _, _, text = self.items[i % len(self.items)]
        g = graphs.parse_graph6(text)
        try:
            if route == "integral":
                cert = criticality.is_abk_critical(g, criticality.FactorParams(*params))
            elif route == "fractional":
                cert = criticality.is_fractional_abk_critical(g, criticality.FactorParams(*params))
            else:
                cert = criticality.is_rk_critical(g, *params)
        except ValueError:
            return Call(1, 1, (i, None))
        return Call(1, 0, (i, None if cert is None else cert.to_json()))

    def check(self, outputs) -> list[str]:
        import oracles

        errors = []
        for i, cert in outputs:
            route, params, n, edges, text = self.items[i % len(self.items)]
            why = oracles.check_decision(n, edges, route, params, cert is None, cert)
            if why:
                errors.append(f"certify {route}{params} on {text}: {why}")
        return errors

    def properties(self, outputs) -> dict:
        used = [self.items[i % len(self.items)] for i, _ in outputs]
        return {
            "n_histogram": _histogram(n for _, _, n, _, _ in used),
            "edge_density": _mean(inputs.edge_density(n, e) for _, _, n, e, _ in used),
            "critical_ratio": _mean(cert is None for _, cert in outputs),
            "beyond_convergence_limit": 0,
        }


class Explore(Workload):
    """The conjecture explorer at criterion 11's shape; one item is one
    spectral evaluation, the explorer's budget unit."""

    R, K, N = 2, 0, 12
    # Phases A and B (about 960 evaluations) are the same on every seed;
    # the rest goes to about 30 seeded random restarts per call.
    BUDGET = 1500

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.seeds = [rng.randrange(1 << 31) for _ in range(64)]

    def call(self, i: int) -> Call:
        seed = self.seeds[i % len(self.seeds)]
        result = harness.explore_conjecture(self.R, self.K, self.N, self.BUDGET, seed)
        return Call(result.metrics["evaluations"], 0, result.to_json())

    def check(self, outputs) -> list[str]:
        import oracles

        errors = []
        for result in outputs:
            why = oracles.check_explore(result, self.R, self.K, self.N, self.BUDGET)
            if why:
                errors.append(f"explore seed {result['params']['seed']}: {why}")
        return errors

    def properties(self, outputs) -> dict:
        m = [r["metrics"] for r in outputs]
        screened = sum(x["qualifying"] - x["isomorphic_excluded"] for x in m)
        return {
            "n_histogram": {self.N: sum(x["evaluations"] for x in m)},
            "qualifying": sum(x["qualifying"] for x in m),
            "critical_ratio": _ratio(sum(x["critical_qualifying"] for x in m), screened),
            "beyond_convergence_limit": 0,
        }


class SpectralSparse(Workload):
    """Spectral radii of sparse graphs with small spectral gaps, where power
    iteration does nearly all the work; one item is one graph."""

    PATH_SIZES = (24, 36, 48, 62)
    # Copies of a path whose cost lies near the median of the other inputs'.
    # They straddle the median, so item_p50_ms is the time of one fixed
    # input, not of whichever random tree the seed puts there.
    MEDIAN_PATH = 28
    MEDIAN_COPIES = 3
    TREE_SIZES = (30, 62)
    CATERPILLAR_SPINE = (10, 20)
    CATERPILLAR_LEGS = 2
    # dense controls (a, b, k, n) from the extremal family, one per
    # sub-round; a round is one sub-round per control
    CONTROLS = ((1, 2, 0, 30), (2, 3, 1, 40), (3, 4, 0, 50), (2, 2, 1, 62))
    SUB_ROUNDS = 52

    def __init__(self, seed: int):
        rng = random.Random(seed)
        controls = []
        for a, b, k, n in self.CONTROLS:
            g = families.extremal_graph(families.ExtremalParams(a, b, k, n))
            controls.append((n, g.edges()))
        # Every input lies within today's power-iteration limit, so no call
        # raises; inputs.twin_hub_caterpillar() is one that does not.
        self.items = []  # (kind, n, edges, graph6)
        for r in range(self.SUB_ROUNDS):
            for size in self.PATH_SIZES:
                self._add(rng, "path", size, inputs.path(size))
                n = rng.randint(*self.TREE_SIZES)
                self._add(rng, "tree", n, inputs.prufer_tree(rng, n))
                spine = rng.randint(*self.CATERPILLAR_SPINE)
                self._add(rng, "caterpillar", *inputs.random_caterpillar(rng, spine, self.CATERPILLAR_LEGS))
            for _ in range(self.MEDIAN_COPIES):
                self._add(rng, "path", self.MEDIAN_PATH, inputs.path(self.MEDIAN_PATH))
            self._add(rng, "control", *controls[r % len(controls)])
        self.round = len(self.items) // self.SUB_ROUNDS * len(self.CONTROLS)

    def _add(self, rng, kind, n, edges) -> None:
        edges = inputs.relabel(rng, n, edges)
        self.items.append((kind, n, edges, inputs.encode_graph6(n, edges)))

    def round_start(self, i: int) -> bool:
        return i % self.round == 0

    def _item(self, i: int):
        return self.items[i % len(self.items)]

    def call(self, i: int) -> Call:
        g = graphs.parse_graph6(self._item(i)[3])
        try:
            report = spectral.spectral_radius(g)
        except spectral.ConvergenceError:
            return Call(1, 1, (i, None))
        return Call(1, 0, (i, report.lam))

    def check(self, outputs) -> list[str]:
        import oracles

        errors = []
        for i, lam in outputs:
            kind, n, edges, text = self._item(i)
            why = lam is not None and oracles.check_lambda(n, edges, lam)
            if why:
                errors.append(f"spectral {kind} {text}: {why}")
        return errors

    def properties(self, outputs) -> dict:
        import oracles

        items = [self._item(i) for i, _ in outputs[: len(self.items)]]
        return {
            "n_histogram": _histogram(n for _, n, _, _ in items),
            "edge_density": _mean(inputs.edge_density(n, e) for _, n, e, _ in items),
            "kinds": dict(Counter(kind for kind, _, _, _ in items)),
            "beyond_convergence_limit": sum(
                oracles.beyond_power_limit(n, e) for _, n, e, _ in items
            ),
        }


class Crossval(Workload):
    """Decider cross-validation over every connected graph with n <= 6 on
    one grid item of the full battery per route, one call per item and the
    three calls in a seeded order per round; one item is one (graph, grid
    item) comparison.  Only this workload reaches the factor oracles."""

    ITEMS = (["integral", 2, 3, 0], ["fractional", 2, 2, 1], ["parity", 2, 1])
    N_MAX = 6

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.order = [item for _ in range(16) for item in rng.sample(self.ITEMS, len(self.ITEMS))]

    def round_start(self, i: int) -> bool:
        return i % len(self.ITEMS) == 0

    def call(self, i: int) -> Call:
        grid = [self.order[i % len(self.order)]]
        result = harness.run_check(
            "decider-cross-validation", {"n_max": self.N_MAX, "param_grid": grid}
        )
        m = result.metrics
        compared = sum(m.get(f"compared_{route}", 0) for route in ("integral", "fractional", "parity"))
        return Call(compared, 0, (grid, result.to_json()))

    def check(self, outputs) -> list[str]:
        import oracles

        return [why for grid, result in outputs if (why := oracles.check_crossval(result, grid))]

    def properties(self, outputs) -> dict:
        import oracles

        return {
            "n_histogram": dict(enumerate(oracles.CONNECTED_LABELLED, start=1)),
            "grid": self.ITEMS,
            "beyond_convergence_limit": 0,
        }


WORKLOADS = {
    "certify": Certify,
    "explore": Explore,
    "spectral-sparse": SpectralSparse,
    "crossval": Crossval,
}


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
