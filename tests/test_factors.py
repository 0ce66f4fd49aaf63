"""Witness oracles: backtracking [a,b]-factor and flow-based fractional factor.

Ground truths used here are classical small facts: perfect matchings of
K_4 and C_4, nonexistence of a 2-factor in a star, the half-integral
weighting of an odd cycle for a = b = 1, and exhaustive agreement of the
two oracles with each other (integral implies fractional) on the small
corpus.  The fractional verdicts are also checked against scipy's LP
solver on the defining polytope, and sha256 digests pin every fractional
and every backtracked integral witness byte for byte.
"""

from __future__ import annotations

import ast
import gc
import hashlib
import json
import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from factor_spectra import factors
from factor_spectra.factors import (
    FactorWitness,
    find_ab_factor,
    find_fractional_factor,
    find_r_factor,
    validate_witness,
)
from factor_spectra.graphs import (
    Graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    enumerate_graphs,
    path_graph,
)


def _random_graph(rng: random.Random, n: int, p: float) -> Graph:
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


class TestIntegralOracle:
    def test_perfect_matching_k4(self):
        w = find_ab_factor(complete_graph(4), 1, 1)
        assert w is not None
        assert len(w.edges) == 2
        assert w.degrees == (1, 1, 1, 1)

    def test_cycle_is_its_own_2_factor(self):
        for n in (3, 4, 5, 6):
            w = find_ab_factor(cycle_graph(n), 2, 2)
            assert w is not None
            assert len(w.edges) == n

    def test_star_has_no_2_factor(self):
        assert find_ab_factor(complete_bipartite(1, 3), 2, 2) is None

    def test_odd_cycle_has_no_perfect_matching(self):
        assert find_ab_factor(cycle_graph(5), 1, 1) is None

    def test_path_12_factor(self):
        w = find_ab_factor(path_graph(4), 1, 2)
        assert w is not None
        validate_witness(path_graph(4), w, 1, 2)

    def test_isolated_vertex_blocks(self):
        g = disjoint_union(empty_graph(1), complete_graph(3))
        assert find_ab_factor(g, 1, 2) is None

    def test_no_vertices(self):
        w = find_ab_factor(empty_graph(0), 1, 2)
        assert w is not None and w.edges == ()

    def test_a_zero_always_feasible(self):
        w = find_ab_factor(path_graph(5), 0, 2)
        assert w is not None

    def test_edge_cap(self):
        with pytest.raises(ValueError):
            find_ab_factor(complete_graph(10), 1, 2)  # 45 edges > cap

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            find_ab_factor(complete_graph(3), 2, 1)

    def test_backtracking_leaves_no_garbage(self):
        # both searches undo choices (K4 refuses its first pick, 01 with 02;
        # C5 has no perfect matching); the search keeps an explicit stack,
        # so it leaves no reference cycle
        enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            assert find_ab_factor(complete_graph(4), 1, 1) is not None
            assert find_ab_factor(cycle_graph(5), 1, 1) is None
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()

    def test_witnesses_validate_on_random_graphs(self):
        rng = random.Random(23)
        found = 0
        for _ in range(200):
            n = rng.randint(1, 7)
            edges = [
                (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5
            ]
            g = Graph.from_edges(n, edges)
            a, b = sorted((rng.randint(0, 2), rng.randint(0, 3)))
            w = find_ab_factor(g, a, b)
            if w is not None:
                validate_witness(g, w, a, b)
                found += 1
        assert found > 20


class TestFractionalOracle:
    def test_odd_cycle_half_weights(self):
        w = find_fractional_factor(cycle_graph(5), 1, 1)
        assert w is not None
        assert w.degrees == (Fraction(1),) * 5
        assert sorted(x[2] for x in w.weights) == [Fraction(1, 2)] * 5

    def test_k4_22(self):
        w = find_fractional_factor(complete_graph(4), 2, 2)
        assert w is not None
        assert w.degrees == (Fraction(2),) * 4

    def test_degrees_past_the_half_table(self):
        # degree 33 is 66 half-units; witness degrees are exact at any size
        w = find_fractional_factor(complete_graph(34), 33, 33)
        assert w is not None
        assert w.degrees == (Fraction(33),) * 34

    def test_star_infeasible(self):
        assert find_fractional_factor(complete_bipartite(1, 3), 1, 2) is None

    def test_star_feasible_with_a_zero(self):
        w = find_fractional_factor(complete_bipartite(1, 3), 0, 1)
        assert w is not None

    def test_fractional_relaxation_exhaustive(self):
        # integral feasibility implies fractional feasibility on every
        # 5-vertex graph for a sample of windows
        for a, b in [(1, 1), (1, 2), (2, 2), (2, 3)]:
            for g in enumerate_graphs(5):
                integral = find_ab_factor(g, a, b)
                fractional = find_fractional_factor(g, a, b)
                if integral is not None:
                    assert fractional is not None

    def test_fractional_equals_integral_for_bipartite(self):
        # on bipartite graphs fractional feasibility collapses to integral;
        # C_4 and K_{3,3} both ways
        for g, a, b in [(cycle_graph(4), 1, 1), (complete_bipartite(3, 3), 1, 1)]:
            assert find_ab_factor(g, a, b) is not None
            assert find_fractional_factor(g, a, b) is not None

    def test_degree_test_answers_without_flow(self, monkeypatch):
        # a vertex of degree below a rules out every weighting, so the
        # oracle must answer None before building or running a flow
        def no_flow(*args):
            raise AssertionError("flow run despite a vertex of degree < a")

        monkeypatch.setattr(factors, "_max_flow", no_flow)
        assert find_fractional_factor(path_graph(4), 2, 3) is None
        assert find_fractional_factor(disjoint_union(empty_graph(1), complete_graph(4)), 1, 1) is None

    def test_witness_weights_validate(self):
        rng = random.Random(31)
        found = 0
        for _ in range(200):
            n = rng.randint(1, 8)
            edges = [
                (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5
            ]
            g = Graph.from_edges(n, edges)
            a, b = sorted((rng.randint(0, 2), rng.randint(0, 3)))
            w = find_fractional_factor(g, a, b)
            if w is not None:
                validate_witness(g, w, a, b)
                found += 1
        assert found > 20


class TestParityOracle:
    def test_small_facts(self):
        assert find_r_factor(cycle_graph(7), 2).edges == tuple(cycle_graph(7).edges())
        assert len(find_r_factor(complete_graph(6), 1).edges) == 3
        assert find_r_factor(cycle_graph(5), 1) is None  # odd r n
        assert find_r_factor(complete_bipartite(1, 3), 2) is None
        assert find_r_factor(path_graph(3), 0).edges == ()

    def test_every_factor_validates(self):
        rng = random.Random(37)
        found = 0
        for _ in range(300):
            g = _random_graph(rng, rng.randint(1, 14), rng.choice([0.3, 0.5, 0.8]))
            r = rng.randint(1, 4)
            w = find_r_factor(g, r)
            if w is not None:
                validate_witness(g, w, r, r)
                assert w.kind == "integral" and w.degrees == (r,) * g.n
                found += 1
        assert found > 50

    def test_agrees_with_backtracking(self):
        # every graph with n <= 5, then seeded random graphs up to n = 10,
        # all within the backtracking oracle's edge cap
        corpus = [g for n in range(1, 6) for g in enumerate_graphs(n)]
        rng = random.Random(43)
        corpus += [_random_graph(rng, rng.randint(6, 10), rng.choice([0.3, 0.5, 0.7])) for _ in range(300)]
        factors_found = 0
        for g in corpus:
            if g.edge_count > factors.BACKTRACK_EDGE_CAP:
                continue
            for r in (1, 2, 3):
                got = find_r_factor(g, r)
                assert (got is None) == (find_ab_factor(g, r, r) is None)
                factors_found += got is not None
        assert factors_found > 400

    def test_agrees_with_networkx_gadget(self):
        # an independent Tutte gadget (cores joined to the ends of a
        # vertex's edges) solved by networkx's maximum matching
        nx = pytest.importorskip("networkx")

        def gadget_says(g: Graph, r: int) -> bool:
            if any(d < r for d in g.degrees()):
                return False
            h = nx.Graph()
            for u, v in g.edges():
                h.add_edge(("end", u, v), ("end", v, u))
            for v in range(g.n):
                ends = [("end", v, u) for u in g.neighbors(v)]
                for c in range(g.degree(v) - r):
                    h.add_edges_from((("core", v, c), x) for x in ends)
            matching = nx.max_weight_matching(h, maxcardinality=True)
            return 2 * len(matching) == h.number_of_nodes()

        rng = random.Random(59)
        corpus = [cycle_graph(16), cycle_graph(20)]
        corpus += [_random_graph(rng, rng.randint(8, 14), rng.choice([0.25, 0.4])) for _ in range(40)]
        answers = set()
        for g in corpus:
            for r in (2, 3):
                want = gadget_says(g, r)
                assert (find_r_factor(g, r) is not None) == want
                answers.add(want)
        assert answers == {True, False}

    def test_greedy_start_and_gadget_both_used(self, monkeypatch):
        # the greedy choice alone settles some graphs; the others go
        # through the gadget's matching, which both completes and refutes
        outcomes = []
        complete = factors._complete_r_factor

        def recording(*args):
            picked = complete(*args)
            outcomes.append(picked is not None)
            return picked

        monkeypatch.setattr(factors, "_complete_r_factor", recording)
        rng = random.Random(47)
        found = 0
        for _ in range(200):
            found += find_r_factor(_random_graph(rng, rng.randint(6, 12), 0.45), 2) is not None
        assert set(outcomes) == {True, False}
        assert found > outcomes.count(True)

    def test_degree_and_parity_tests_answer_without_gadget(self, monkeypatch):
        def no_gadget(*args):
            raise AssertionError("gadget built despite a degree or parity refusal")

        monkeypatch.setattr(factors, "_tutte_gadget", no_gadget)
        assert find_r_factor(path_graph(4), 2) is None  # degree 1 < 2
        assert find_r_factor(complete_graph(5), 3) is None  # 3 * 5 odd
        assert find_r_factor(cycle_graph(7), 1) is None  # 1 * 7 odd

    def test_negative_r_rejected(self):
        with pytest.raises(ValueError):
            find_r_factor(cycle_graph(4), -1)


class TestValidateWitness:
    def test_rejects_foreign_edge(self):
        w = FactorWitness(
            kind="integral", edges=((0, 2),), weights=None, degrees=(1, 0, 1)
        )
        with pytest.raises(ValueError):
            validate_witness(path_graph(3), w, 0, 1)

    def test_rejects_negative_label(self):
        # (-1, 0) must not pass as an alias of (1, 0) on K_2, which would
        # turn its one edge into a 2-factor
        w = FactorWitness(
            kind="integral", edges=((1, 0), (-1, 0)), weights=None, degrees=(2, 2)
        )
        with pytest.raises(ValueError, match="not in the graph"):
            validate_witness(path_graph(2), w, 2, 2)

    def test_rejects_degree_mismatch(self):
        w = FactorWitness(
            kind="integral", edges=((0, 1),), weights=None, degrees=(1, 1, 1)
        )
        with pytest.raises(ValueError):
            validate_witness(path_graph(3), w, 0, 1)

    def test_rejects_out_of_window(self):
        w = FactorWitness(
            kind="integral", edges=((0, 1),), weights=None, degrees=(1, 1, 0)
        )
        with pytest.raises(ValueError):
            validate_witness(path_graph(3), w, 1, 1)

    def test_rejects_bad_weight(self):
        w = FactorWitness(
            kind="fractional",
            edges=None,
            weights=((0, 1, Fraction(3, 2)),),
            degrees=(Fraction(3, 2), Fraction(3, 2), Fraction(0)),
        )
        with pytest.raises(ValueError):
            validate_witness(path_graph(3), w, 0, 2)

    def test_rejects_weight_off_the_half_grid(self):
        # fractional witnesses are half-integral: a weight of 1/3 is not
        # one, even though every degree it gives lies in the window
        w = FactorWitness(
            kind="fractional",
            edges=None,
            weights=((0, 1, Fraction(1, 3)),),
            degrees=(Fraction(1, 3), Fraction(1, 3)),
        )
        with pytest.raises(ValueError, match="not exactly 1/2 or 1"):
            validate_witness(path_graph(2), w, 0, 1)

    def test_json_shapes(self):
        w = find_ab_factor(complete_graph(4), 1, 1)
        d = w.to_json()
        assert d["kind"] == "integral" and len(d["edges"]) == 2
        w = find_fractional_factor(cycle_graph(5), 1, 1)
        d = w.to_json()
        assert d["kind"] == "fractional"
        assert all(len(entry) == 4 for entry in d["weights"])
        assert d["degrees"] == [[1, 1]] * 5


# Every find_fractional_factor result, as witness JSON or None, over every
# labelled graph with n <= 5 and seeded random graphs with n = 7-12, in the
# windows below.  The digest pins the flow's exact witnesses, so a rewrite
# of the oracle must reproduce them byte for byte, not only the verdicts.
PINNED_WINDOWS = ((0, 1), (1, 1), (1, 2), (2, 2), (2, 3), (1, 3), (3, 3))
PINNED_DIGEST = "10c7546e2ea6fe96b6eea19ccd4aac8d4945f55f64b4d8305aa63ec4efa52a46"


def _pinned_graphs():
    for n in range(6):
        yield from enumerate_graphs(n)
    rng = random.Random(2024)
    for _ in range(300):
        n = rng.randint(7, 12)
        p = rng.uniform(0.2, 0.9)
        yield Graph.from_edges(
            n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        )


def _witness_digest(finder, graphs, windows) -> tuple[str, int]:
    """sha256 over finder's witness JSON (or None) for every graph and
    window, one line each, and the number of witnesses found."""
    digest = hashlib.sha256()
    found = 0
    for g in graphs:
        for a, b in windows:
            w = finder(g, a, b)
            found += w is not None
            record = None if w is None else w.to_json()
            digest.update(json.dumps(record, separators=(",", ":")).encode() + b"\n")
    return digest.hexdigest(), found


def test_fractional_witnesses_pinned():
    digest, found = _witness_digest(find_fractional_factor, _pinned_graphs(), PINNED_WINDOWS)
    assert found > 1000
    assert digest == PINNED_DIGEST


# Every find_ab_factor result, as witness JSON or None, over every labelled
# graph with n <= 5 and seeded random graphs with n = 6-10 and at most
# BACKTRACK_EDGE_CAP edges.  The `factor` verb prints these witnesses, so a
# rewrite of the backtracking must keep its edge order and its first find.
PINNED_AB_WINDOWS = ((1, 2), (2, 2), (2, 3))
PINNED_AB_DIGEST = "8b7e73d7e3669ff4abed6afc5d9ac9bdc8d64f42995d4433f5995497c4ec1b9b"


def _pinned_ab_graphs():
    for n in range(6):
        yield from enumerate_graphs(n)
    rng = random.Random(2025)
    for _ in range(200):
        n = rng.randint(6, 10)
        g = _random_graph(rng, n, rng.uniform(0.2, 0.7))
        if g.edge_count <= factors.BACKTRACK_EDGE_CAP:
            yield g


def test_ab_witnesses_pinned():
    digest, found = _witness_digest(find_ab_factor, _pinned_ab_graphs(), PINNED_AB_WINDOWS)
    assert found > 500
    assert digest == PINNED_AB_DIGEST


def _lp_feasible(g: Graph, a: int, b: int) -> bool:
    """Whether {0 <= x_e <= 1, a <= sum of x_e at v <= b for every v} has a
    point, by scipy's LP solver: a route that shares no code with the
    flow oracle."""
    from scipy.optimize import linprog

    edges = g.edges()
    if not edges:
        return a == 0 or g.n == 0
    incidence = [[int(v in e) for e in edges] for v in range(g.n)]
    res = linprog(
        c=[0] * len(edges),
        A_ub=incidence + [[-x for x in row] for row in incidence],
        b_ub=[b] * g.n + [-a] * g.n,
        bounds=(0, 1),
        method="highs",
    )
    assert res.status in (0, 2), res.message  # solved or proved infeasible
    return res.status == 0


def test_fractional_verdicts_match_linear_programming():
    pytest.importorskip("scipy")
    rng = random.Random(41)
    windows = ((1, 1), (1, 2), (2, 2), (2, 3), (3, 3))
    feasible = 0
    for _ in range(300):
        n = rng.randint(1, 9)
        p = rng.uniform(0.2, 0.9)
        g = Graph.from_edges(
            n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        )
        a, b = rng.choice(windows)
        expected = _lp_feasible(g, a, b)
        assert (find_fractional_factor(g, a, b) is not None) == expected, (g.adj, a, b)
        feasible += expected
    assert 50 < feasible < 250


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text())


def _nodes(tree: ast.AST, *types) -> list:
    return [node for node in ast.walk(tree) if isinstance(node, types)]


def test_oracles_import_nothing_from_criticality():
    # the oracles are the independent side of every decider cross-check,
    # so factors.py must not reach the deficiency machinery it checks
    imported = set()
    for node in _nodes(_parse(Path(factors.__file__)), ast.Import, ast.ImportFrom):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
        imported.update(alias.name for alias in node.names)
    assert imported, "no imports parsed"
    assert not any("criticality" in name.split(".") for name in imported)


def test_package_imports_only_the_standard_library():
    # the package has no runtime dependencies: every absolute import names
    # a standard-library module or the package itself
    modules = sorted(Path(factors.__file__).parent.glob("*.py"))
    assert len(modules) > 1
    for path in modules:
        for node in _nodes(_parse(path), ast.Import, ast.ImportFrom):
            if isinstance(node, ast.ImportFrom):
                if node.level:
                    continue  # relative, so inside the package
                names = [node.module]
            else:
                names = [alias.name for alias in node.names]
            for name in names:
                root = name.split(".")[0]
                assert root in sys.stdlib_module_names or root == "factor_spectra", (
                    path.name,
                    name,
                )


# no caller in the package, each for its own reason
UNCALLED_ALLOWED = {
    # an entry point: callers re-check a counterexample from its JSON
    "revalidate_counterexample",
}


def _names(tree: ast.AST) -> Counter:
    """How often each identifier occurs in tree as a name, an attribute,
    an imported name or an entry of __all__.  Words in other strings,
    docstrings among them, do not count."""
    names: Counter = Counter()
    for node in _nodes(tree, ast.Name, ast.Attribute, ast.alias, ast.Assign):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name] += 1
        elif any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names.update(c.value for c in _nodes(node.value, ast.Constant))
    return names


def _definitions(tree: ast.Module) -> list:
    """The top-level functions and classes of a module, and the methods and
    properties of its classes; dunder methods, which Python calls by its
    own protocols, are left out."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append(node)
        if isinstance(node, ast.ClassDef):
            found += [
                member
                for member in node.body
                if isinstance(member, ast.FunctionDef)
                and not (member.name.startswith("__") and member.name.endswith("__"))
            ]
    return found


def test_every_definition_is_referenced():
    # every top-level function and class, and every method and property of
    # a package class, is named somewhere in the package outside its own
    # definition, by code, an import or __all__, so code that nothing uses
    # shows up here; a docstring that mentions a name does not keep it
    # alive.  A method counts as named when any attribute of that name is,
    # whatever its class.
    trees = [_parse(path) for path in sorted(Path(factors.__file__).parent.glob("*.py"))]
    names = sum((_names(tree) for tree in trees), Counter())
    definitions = [node for tree in trees for node in _definitions(tree)]
    assert len(definitions) > 150
    assert any(node.name == "from_edges" for node in definitions)
    unreferenced = [
        node.name
        for node in definitions
        if names[node.name] == _names(node)[node.name] and node.name not in UNCALLED_ALLOWED
    ]
    assert unreferenced == []
