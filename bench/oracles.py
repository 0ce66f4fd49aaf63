"""Independent output checks.  Nothing here calls the package under test.

Each ``check_*`` function returns ``None`` when the program's output is
right and a one-line reason when it is wrong.  Graphs arrive as the same
``(n, edges)`` pairs the generator made (or decoded from the program's JSON
with the benchmark's own graph6 decoder).  Spectral checks use
``numpy.linalg.eigvalsh``; factor existence uses ``networkx`` max-flow and
maximum matching; deficiencies use the arithmetic below.
"""

from __future__ import annotations

import itertools
import math

import networkx as nx
import numpy as np

from inputs import POWER_ITERATION_LIMIT, Edges, decode_graph6

LAMBDA_TOL = 1e-8
POWER_ITERATION_TOL = 1e-10
# Labelled connected graphs on n = 1..6 vertices (OEIS A001187).
CONNECTED_LABELLED = (1, 1, 4, 38, 728, 26704)


def _adjacency(n: int, edges: Edges) -> np.ndarray:
    a = np.zeros((n, n))
    for u, v in edges:
        a[u, v] = a[v, u] = 1.0
    return a


def _nx_graph(n: int, edges: Edges) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return g


# -- spectral --------------------------------------------------------------------


def reference_lambda(n: int, edges: Edges) -> float:
    return float(np.linalg.eigvalsh(_adjacency(n, edges))[-1])


def check_lambda(n: int, edges: Edges, lam: float) -> str | None:
    ref = reference_lambda(n, edges)
    if not abs(lam - ref) <= LAMBDA_TOL:
        return f"lambda {lam!r} differs from eigvalsh {ref!r} by more than {LAMBDA_TOL}"
    return None


def predicted_power_steps(n: int, edges: Edges) -> float:
    """Estimated steps for power iteration on A + I from the all-ones vector
    to bring every eigencomponent's residual below 1e-10: for each
    eigenpair (mu_i, v_i) with start weight c_i, the t solving
    (|mu_i| / mu_1)^t * |c_i / c_1| * (mu_1 - mu_i) * max|v_i| / max|v_1| = tol."""
    mu, vecs = np.linalg.eigh(_adjacency(n, edges) + np.eye(n))
    c = vecs.T @ np.ones(n)
    top = int(np.argmax(mu))
    scale = abs(c[top]) * np.max(np.abs(vecs[:, top]))
    steps = 0.0
    for i in range(n):
        weight = abs(c[i]) * (mu[top] - mu[i]) * np.max(np.abs(vecs[:, i])) / scale
        ratio = abs(mu[i]) / mu[top]
        if i == top or abs(c[i]) < 1e-9 * abs(c[top]) or weight <= POWER_ITERATION_TOL or ratio < 1e-12:
            continue  # absent from the start vector, negligible, or gone after one step
        steps = max(steps, math.log(weight / POWER_ITERATION_TOL) / -math.log(ratio))
    return steps


def beyond_power_limit(n: int, edges: Edges) -> bool:
    return predicted_power_steps(n, edges) > POWER_ITERATION_LIMIT


# -- deficiency arithmetic ----------------------------------------------------------


def _degrees_without(n: int, edges: Edges, removed: set[int]) -> list[int]:
    deg = [0] * n
    for u, v in edges:
        if u not in removed and v not in removed:
            deg[u] += 1
            deg[v] += 1
    return deg


def low_set(n: int, edges: Edges, s_set, threshold: int) -> list[int]:
    s = set(s_set)
    deg = _degrees_without(n, edges, s)
    return [x for x in range(n) if x not in s and deg[x] <= threshold]


def integral_deficiency(n: int, edges: Edges, s_set, a: int, b: int, k: int) -> int:
    """a|T| - sum_T d_{G-S} - b|S| + bk, T = {x not in S : d_{G-S}(x) <= a-1}."""
    deg = _degrees_without(n, edges, set(s_set))
    t = low_set(n, edges, s_set, a - 1)
    return a * len(t) - sum(deg[x] for x in t) - b * len(s_set) + b * k


def fractional_deficiency(n: int, edges: Edges, s_set, a: int, b: int, k: int) -> int:
    """bk - (b|S| - a|T| + sum_T d_{G-S}), T = {x not in S : d_{G-S}(x) <= a}."""
    deg = _degrees_without(n, edges, set(s_set))
    t = low_set(n, edges, s_set, a)
    return b * k - (b * len(s_set) - a * len(t) + sum(deg[x] for x in t))


def parity_deficiency(n: int, edges: Edges, x_set, y_set, r: int, k: int) -> int:
    """rk - (r|X| - r|Y| + sum_Y d_{G-X} - h), h counting the components C of
    G - (X u Y) with r|C| + e(Y, C) odd."""
    x, y = set(x_set), set(y_set)
    deg = _degrees_without(n, edges, x)
    rest = _nx_graph(n, [(u, v) for u, v in edges if not {u, v} & (x | y)])
    rest.remove_nodes_from(x | y)
    h = 0
    for comp in nx.connected_components(rest):
        to_y = sum(1 for u, v in edges if (u in comp and v in y) or (v in comp and u in y))
        h += (r * len(comp) + to_y) % 2
    return r * k - (r * len(x) - r * len(y) + sum(deg[v] for v in y) - h)


def check_certificate(n: int, edges: Edges, route: str, params: tuple, cert: dict) -> str | None:
    """A refutation must carry a violating set that re-derives exactly."""
    if cert.get("kind") != route:
        return f"certificate kind {cert.get('kind')!r} on the {route} route"
    s_set, t_set, claimed = cert["s_set"], cert["t_set"], cert["deficiency"]
    k = params[-1]
    members = list(s_set) + (list(t_set) if route == "parity" else [])
    if len(set(members)) != len(members) or not all(0 <= v < n for v in members):
        return f"certificate sets {s_set}, {t_set} are not disjoint vertex sets of G"
    if len(s_set) < k:
        return f"certificate set {s_set} is smaller than k={k}"
    if route == "parity":
        value = parity_deficiency(n, edges, s_set, t_set, *params)
    else:
        a, b, _ = params
        threshold = a - 1 if route == "integral" else a
        if list(t_set) != low_set(n, edges, s_set, threshold):
            return f"certificate T={t_set} is not the low-degree set of S={s_set}"
        deficiency = integral_deficiency if route == "integral" else fractional_deficiency
        value = deficiency(n, edges, s_set, *params)
    if value != claimed:
        return f"certificate deficiency {claimed} re-derives as {value}"
    if value <= 0:
        return f"certificate deficiency {value} is not violating"
    return None


# -- factor existence ------------------------------------------------------------------


def has_fractional_factor(g: nx.Graph, a: int, b: int) -> bool:
    """Max-flow on the bipartite double cover: each vertex v splits into v+
    and v-, each edge uv gives unit arcs u+ -> v- and v+ -> u-.  Every v+
    must send, and every v- receive, between a and b units; the lower
    bound a is supplied from a super source and drained to a super sink.
    For a < b this also decides integral [a, b]-factors, whose existence
    is equivalent to that of a fractional one (Anstee)."""
    d = nx.DiGraph()
    d.add_node("source")
    d.add_node("sink")
    for v in g:
        d.add_edge("source", ("+", v), capacity=a)
        d.add_edge(("-", v), "sink", capacity=a)
        d.add_edge("slack_in", ("+", v), capacity=b - a)
        d.add_edge(("-", v), "slack_out", capacity=b - a)
        for u in g[v]:
            d.add_edge(("+", v), ("-", u), capacity=1)
    d.add_edge("slack_out", "slack_in")
    return nx.maximum_flow_value(d, "source", "sink") == a * g.number_of_nodes()


def has_r_factor(g: nx.Graph, r: int) -> bool:
    """Tutte's gadget: vertex v of degree d becomes d outer vertices, one per
    incident edge, and d - r inner vertices joined to all of them; edge uv
    joins the outer vertex of u for uv to that of v.  G has an r-factor iff
    the gadget has a perfect matching."""
    h = nx.Graph()
    for v in g:
        outer = [("out", v, u) for u in g[v]]
        if len(outer) < r:
            return False
        h.add_nodes_from(outer)
        for i in range(len(outer) - r):
            h.add_edges_from((("in", v, i), o) for o in outer)
    h.add_edges_from((("out", u, v), ("out", v, u)) for u, v in g.edges())
    matching = nx.max_weight_matching(h, maxcardinality=True)
    return 2 * len(matching) == h.number_of_nodes()


def has_factor(g: nx.Graph, route: str, params: tuple) -> bool:
    if route == "parity":
        return has_r_factor(g, params[0])
    return has_fractional_factor(g, params[0], params[1])


def check_critical(n: int, edges: Edges, route: str, params: tuple) -> str | None:
    """A critical verdict must leave a factor after deleting any k vertices."""
    g = _nx_graph(n, edges)
    for kill in itertools.combinations(range(n), params[-1]):
        rest = g.copy()
        rest.remove_nodes_from(kill)
        if not has_factor(rest, route, params):
            return f"critical verdict, but G - {list(kill)} has no {route} factor"
    return None


def check_decision(
    n: int, edges: Edges, route: str, params: tuple, critical: bool, cert: dict | None
) -> str | None:
    if critical:
        if cert is not None:
            return "critical verdict carries a certificate"
        return check_critical(n, edges, route, params)
    if cert is None:
        return "non-critical verdict without a certificate"
    return check_certificate(n, edges, route, params, cert)


# -- harness checks --------------------------------------------------------------------


def extremal_edges(a: int, b: int, k: int, n: int) -> Edges:
    """F = K_{a+k} v (K_w u (b+1)K_1) plus a-1 edges from the first
    independent vertex to the first a-1 vertices of K_w."""
    w = n - a - b - k - 1
    s_block = range(a + k)
    w_block = range(a + k, a + k + w)
    edges = [(u, v) for u, v in itertools.combinations(s_block, 2)]
    edges += [(u, v) for u in s_block for v in range(a + k, n)]
    edges += [(u, v) for u, v in itertools.combinations(w_block, 2)]
    edges += [(a + k + i, n - b - 1) for i in range(a - 1)]
    return edges


def check_explore(result: dict, r: int, k: int, n: int, budget: int) -> str | None:
    metrics = result["metrics"]
    if result["status"] != "pass":
        return f"explorer status {result['status']!r}"
    if metrics["evaluations"] != budget:
        return f"explorer made {metrics['evaluations']} evaluations, budget {budget}"
    if metrics["isomorphic_excluded"] < 1:
        return "explorer excluded no isomorphic copy of the extremal graph"
    lam_f = reference_lambda(n, extremal_edges(r, r, k, n))
    if not abs(metrics["lambda_family"] - lam_f) <= LAMBDA_TOL:
        return f"explorer lambda_family {metrics['lambda_family']!r}, eigvalsh {lam_f!r}"
    found = (result["counterexample"] or {}).get("candidates", [])
    if len(found) != metrics["candidates"]:
        return f"explorer lists {len(found)} candidates, counts {metrics['candidates']}"
    for cand in found:
        gn, gedges = decode_graph6(cand["graph"]["data"])
        why = check_certificate(gn, gedges, "parity", (r, k), cand["certificate"])
        why = why or check_lambda(gn, gedges, cand["lambda"])
        if why is None and cand["lambda"] < lam_f - LAMBDA_TOL:
            why = f"candidate lambda {cand['lambda']!r} is below the family's {lam_f!r}"
        if why:
            return f"explorer candidate {cand['graph']['data']}: {why}"
    return None


def expected_comparisons(item: list) -> int:
    """(graph, item) pairs over the connected graphs with n <= 6 that are
    large enough for the item."""
    min_n = item[1] + item[2] + 1 if item[0] == "parity" else item[1] + item[3] + 1
    return sum(CONNECTED_LABELLED[min_n - 1 :])


def check_crossval(result: dict, grid: list) -> str | None:
    if result["status"] != "pass":
        return f"cross-validation status {result['status']!r} for {grid}"
    metrics = result["metrics"]
    if metrics["graphs"] != sum(CONNECTED_LABELLED):
        return f"cross-validation saw {metrics['graphs']} graphs, not {sum(CONNECTED_LABELLED)}"
    for route in ("integral", "fractional", "parity"):
        want = sum(expected_comparisons(item) for item in grid if item[0] == route)
        if metrics[f"compared_{route}"] != want:
            return f"compared_{route} = {metrics[f'compared_{route}']}, expected {want}"
    return None
