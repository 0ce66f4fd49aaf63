"""Verification battery: every desk-checkable claim behind the toolkit, run live.

Each check re-derives one mathematical fact about the extremal family
F_n^{a,b,k}, the deciders, or the spectral machinery, and returns a
CheckResult that passes, fails with a serialized counterexample, or
reports that the claim's own hypothesis is not met by the requested
parameters.  The hypothesis gate means a vacuous run can never pose as
a pass: asking for the radius bracket below its displayed order bound
yields "hypothesis_not_met", not "pass".

Facts covered:

* radius bracket: once n >= (4a + 2b + ab + (b+2)k)/2 + 1, every member
  of the family has spectral radius strictly between n-b-2 and n-b-1.
* family maximality: once n >= (4a + 2b + ab + (b+2)k)/2 + 2, the
  distinguished member (all a-1 bridge edges on one independent vertex)
  strictly maximizes the radius over the family's degree classes.
* edge-count sharpness: the distinguished member is connected with
  minimum degree exactly a+k, has exactly C(n-b-1, 2) + ab + 2a +
  (b+1)k - 1 edges, one short of the size threshold, and is not
  (a, b, k)-critical; the deleted-clique block S = {0, ..., a+k-1} is a
  violating set of deficiency exactly 1.  This is the one check of the
  size condition's sharpness.
* Perron system: on the distinguished member the Perron vector is
  constant on five structural classes and satisfies four explicit linear
  identities, plus a cubic-rational ratio identity between the entry of
  the attached independent vertex and the entry of an untouched one.
* decider cross-validation: the deficiency-sweep deciders agree with
  brute-force factor search after every k-deletion, exhaustively over
  small connected graphs.  For b > a the integral and fractional
  deficiencies are equal, so both deciders share one kernel and the check
  compares verdicts, not two formulas for the same sum.
* degree-based radius bound: lambda <= (delta-1)/2 +
  sqrt(2e - n*delta + (delta+1)^2/4) with equality exactly on regular
  and {delta, n-1}-bidegreed graphs, plus monotonicity of the bound
  curve in the minimum-degree argument.
* spectral sharpness: at the order bound of the spectral criticality
  conditions, on the integral and the fractional route, the extremal
  graph meets every hypothesis with equality and still fails to be
  critical, so the excluded-graph clause is non-vacuous.
* spectral perturbation suites: deleting edges strictly lowers the
  radius; rotating edges toward a vertex with the larger Perron entry
  strictly raises it.
* conjecture explorer: a budgeted, seeded search at desk scale for a
  connected graph with min degree >= r+k whose radius matches the
  family's yet is neither the extremal graph nor (r, k)-critical.

Fail results carry a self-contained counterexample dict that
revalidate_counterexample() can confirm from serialization alone.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Callable, Iterable

from .criticality import (
    PAIR_SWEEP_CAP,
    SUBSET_SWEEP_CAP,
    DeficiencyCertificate,
    FactorParams,
    certificate_at,
    critical_by_definition,
    decide,
    definition_oracle,
    is_rk_critical,
    recheck_certificate,
    route_params,
)
from .families import (
    ExtremalParams,
    enumerate_family,
    equitable_partition,
    extremal_edge_count,
    extremal_graph,
)
from .graphs import (
    Graph,
    deserialize_graph,
    enumerate_graphs,
    isomorphic,
    random_connected_graph,
    serialize_graph,
)
from .spectral import hong_bound, hong_bound_formula, radius_unless_below, spectral_radius

EIG_TOL = 1e-8
RESIDUAL_TOL = 1e-7
RATIO_TOL = 1e-6
STRICT_MARGIN = 1e-9
PROPERTY_MARGIN = 1e-10
BRACKET_MARGIN = 1e-8
FAMILY_MAX_A = 5


@dataclass
class CheckResult:
    """Outcome of one verification check.

    status is "pass", "fail", or "hypothesis_not_met".  A fail always
    carries a counterexample dict that is independently re-checkable via
    revalidate_counterexample().  metrics holds named reals/integers
    (radii, residuals, counts) for reporting.
    """

    check_id: str
    params: dict
    status: str
    metrics: dict = field(default_factory=dict)
    counterexample: dict | None = None
    notes: str = ""

    def to_json(self) -> dict:
        return asdict(self)


def _not_met(result: partial, need: int, claim: str, order: str = "n") -> CheckResult:
    """The claim needs its order parameter params[order] >= need."""
    got = result.args[1][order]
    return result(
        "hypothesis_not_met",
        {"min_n": need},
        notes=f"{claim} needs {order} >= {need}, got {order}={got}",
    )


# -- hypothesis-minimal orders ------------------------------------------------


def bracket_min_n(a: int, b: int, k: int) -> int:
    """Smallest n with n >= (4a + 2b + ab + (b+2)k)/2 + 1."""
    num = 4 * a + 2 * b + a * b + (b + 2) * k
    return (num + 1) // 2 + 1


def maximality_min_n(a: int, b: int, k: int) -> int:
    """Smallest n with n >= (4a + 2b + ab + (b+2)k)/2 + 2."""
    return bracket_min_n(a, b, k) + 1


def size_min_n(a: int, b: int, k: int) -> int:
    """Smallest n with n >= 4a + 5b/2 + 4k + 7."""
    return 4 * a + 4 * k + 7 + (5 * b + 1) // 2


def spectral_min_n(a: int, b: int, k: int) -> int:
    """The order bound 2(b + a + k + 2)(b + k + 2) of the spectral
    criticality conditions."""
    return 2 * (b + a + k + 2) * (b + k + 2)


def _radius(graph: dict) -> float:
    return spectral_radius(deserialize_graph(graph)).lam


# -- individual checks ----------------------------------------------------------


def _outside_interval(lam: float, lower: float, upper: float) -> bool:
    return not (lower + BRACKET_MARGIN < lam < upper - BRACKET_MARGIN)


def _family_guard(a: int, b: int, k: int) -> None:
    """The family checks enumerate every degree class, so they validate
    the shape and cap a at FAMILY_MAX_A to keep the class list small."""
    FactorParams(a, b, k)
    if a > FAMILY_MAX_A:
        raise ValueError(f"family enumeration is capped at a <= {FAMILY_MAX_A}, got a={a}")


def check_family_radius_bracket(a: int, b: int, k: int, n: int) -> CheckResult:
    """Every family member's radius lies strictly inside
    (n-b-2, n-b-1), with 1e-8 margins, once n meets the bracket's own
    order bound.  Needs a <= 5 so the class list stays small."""
    _family_guard(a, b, k)
    result = partial(CheckResult, "family-radius-bracket", {"a": a, "b": b, "k": k, "n": n})
    need = bracket_min_n(a, b, k)
    if n < need:
        return _not_met(result, need, "bracket claim")
    members = list(enumerate_family(ExtremalParams(a, b, k, n)))
    scope = f"all {len(members)} degree-class representatives"
    lo = float(n - b - 2)
    hi = float(n - b - 1)
    lam_min = math.inf
    lam_max = -math.inf
    count = 0
    for g in members:
        lam = spectral_radius(g).lam
        lam_min = min(lam_min, lam)
        lam_max = max(lam_max, lam)
        count += 1
        if _outside_interval(lam, lo, hi):
            return result(
                "fail",
                {"members_checked": count, "lambda": lam, "lower": lo, "upper": hi},
                counterexample={
                    "kind": "spectral-out-of-interval",
                    "graph": serialize_graph(g),
                    "lower": lo,
                    "upper": hi,
                    "lambda": lam,
                },
                notes=scope,
            )
    return result(
        "pass",
        {
            "members_checked": count,
            "lambda_min": lam_min,
            "lambda_max": lam_max,
            "lower": lo,
            "upper": hi,
        },
        notes=scope,
    )


def _not_dominated(lam: float, lam_rival: float) -> bool:
    return lam_rival >= lam - STRICT_MARGIN


def check_family_maximality(a: int, b: int, k: int, n: int) -> CheckResult:
    """The distinguished member strictly maximizes the radius over the
    family's degree-class representatives (margin 1e-9) once n meets the
    maximality claim's order bound.  Needs a <= 5 so the class list stays
    small."""
    _family_guard(a, b, k)
    result = partial(CheckResult, "family-maximality", {"a": a, "b": b, "k": k, "n": n})
    need = maximality_min_n(a, b, k)
    if n < need:
        return _not_met(result, need, "maximality claim")
    fp = ExtremalParams(a, b, k, n)
    reps = list(enumerate_family(fp))
    distinguished = reps[0]
    lam_f = spectral_radius(distinguished).lam
    if len(reps) == 1:
        return result(
            "pass",
            {"classes": 1, "lambda_distinguished": lam_f},
            notes="single-class family, trivially maximal",
        )
    best_rival = -math.inf
    for g in reps[1:]:
        lam = spectral_radius(g).lam
        best_rival = max(best_rival, lam)
        if _not_dominated(lam_f, lam):
            return result(
                "fail",
                {
                    "classes": len(reps),
                    "lambda_distinguished": lam_f,
                    "lambda_rival": lam,
                },
                counterexample={
                    "kind": "spectral-not-dominated",
                    "graph": serialize_graph(distinguished),
                    "rival": serialize_graph(g),
                },
            )
    return result(
        "pass",
        {
            "classes": len(reps),
            "lambda_distinguished": lam_f,
            "lambda_best_rival": best_rival,
            "margin": lam_f - best_rival,
        },
    )


def _edge_count_off(edge_count: int, expected: int) -> bool:
    return edge_count != expected


def _sharpness_certificate(
    g: Graph, route: str, params: FactorParams
) -> DeficiencyCertificate | None:
    """The violating set the sharpness claims name: the sweep's first one
    when the decider accepts n (n <= SUBSET_SWEEP_CAP), else the clique
    block S = {0, ..., a+k-1} when it violates."""
    if g.n <= SUBSET_SWEEP_CAP:
        return decide(g, route, params)
    cert = certificate_at(g, route, params, range(params.a + params.k))
    return cert if cert.violating else None


def _sharpness_route(g: Graph) -> str:
    return "subset-sweep decider" if g.n <= SUBSET_SWEEP_CAP else "fixed-certificate route"


def _certificate_off(
    cert: DeficiencyCertificate | None, expected_s_set, expected_deficiency: int
) -> bool:
    return (
        cert is None
        or cert.s_set != tuple(expected_s_set)
        or cert.deficiency != expected_deficiency
    )


def _shape_off(g: Graph, expected_min_degree: int) -> bool:
    return not g.is_connected() or g.min_degree() != expected_min_degree


def _sharpness_core(
    result: partial,
    g: Graph,
    route: str,
    fparams: FactorParams,
    metrics: dict,
    edges: int | None = None,
) -> tuple[CheckResult | None, DeficiencyCertificate | None]:
    """The sharpness checks' shared assertions on the distinguished member
    g, in order: g is connected with minimum degree exactly a+k; g has
    `edges` edges, when given; the set _sharpness_certificate names is
    the clique block S = {0..a+k-1} with deficiency exactly 1.  Returns
    (failure or None, certificate).

    A failure reports metrics, plus delta when the shape is off; a
    certificate failure names the route in its notes."""
    s_block = tuple(range(fparams.a + fparams.k))
    cert, notes = None, ""
    if _shape_off(g, len(s_block)):
        metrics = {**metrics, "delta": g.min_degree()}
        kind, fields = "hypothesis-shape-mismatch", {"expected_min_degree": len(s_block)}
    elif edges is not None and _edge_count_off(g.edge_count, edges):
        kind, fields = "edge-count-mismatch", {"expected": edges}
    else:
        cert = _sharpness_certificate(g, route, fparams)
        if not _certificate_off(cert, s_block, 1):
            return None, cert
        kind, notes = "certificate-mismatch", _sharpness_route(g)
        fields = {
            "a": fparams.a,
            "b": fparams.b,
            "k": fparams.k,
            "route": route,
            "expected_s_set": list(s_block),
            "expected_deficiency": 1,
            "got": None if cert is None else cert.to_json(),
        }
    counterexample = {"kind": kind, "graph": serialize_graph(g), **fields}
    return result("fail", metrics, counterexample=counterexample, notes=notes), cert


def check_edge_count_sharpness(a: int, b: int, k: int, n: int) -> CheckResult:
    """The distinguished member is connected with minimum degree exactly
    a+k, sits one edge below the size threshold C(n-b-1,2) + ab + 2a +
    (b+1)k and is not (a, b, k)-critical: the block S = {0..a+k-1}
    violates with deficiency exactly 1.  Uses the full subset-sweep
    decider when it accepts n, the fixed certificate route otherwise."""
    factor_params = route_params("integral", a, b, k)
    result = partial(CheckResult, "edge-count-sharpness", {"a": a, "b": b, "k": k, "n": n})
    need = size_min_n(a, b, k)
    if n < need:
        return _not_met(result, need, "size threshold claim")
    fp = ExtremalParams(a, b, k, n)
    g = extremal_graph(fp)
    formula = extremal_edge_count(fp)
    metrics = {"edge_count": g.edge_count, "threshold": formula + 1}
    failure, cert = _sharpness_core(result, g, "integral", factor_params, metrics, edges=formula)
    if failure:
        return failure
    return result(
        "pass",
        {**metrics, "deficiency": cert.deficiency, "t_size": len(cert.t_set)},
        notes=f"{_sharpness_route(g)}; violating set is the joined clique block",
    )


def perron_ratio_cubic(a: int, b: int, k: int, n: int, lam0: float) -> float:
    """The cubic appearing in the ratio identity between the attached and
    untouched independent-vertex Perron entries."""
    return (
        lam0**3
        - (n - a - b - k - 3) * lam0**2
        - (n - b - k - 3) * lam0
        + (a - 1) * (n - 2 * a - b - k - 1)
    )


def _perron_metrics(g: Graph, a: int, b: int, k: int, n: int) -> dict:
    """Radius, the four class-equation residuals and the ratio identity
    of check_perron_system, read off g's Perron vector."""
    report = spectral_radius(g)
    lam0, y = report.lam, report.perron
    u1, w1, wa, t1, t2 = (part[0] for part in equitable_partition(ExtremalParams(a, b, k, n)))
    g_val = perron_ratio_cubic(a, b, k, n, lam0)
    ratio_lhs = y[t1] / y[t2]
    ratio_rhs = lam0 * (lam0 + 1.0) * (lam0 - (n - 2 * a - b - k - 1)) / g_val
    return {
        "lambda0": lam0,
        "residual_t1": abs(lam0 * y[t1] - ((a + k) * y[u1] + (a - 1) * y[w1])),
        "residual_t2": abs(lam0 * y[t2] - (a + k) * y[u1]),
        "residual_w1": abs(
            lam0 * y[w1]
            - ((a + k) * y[u1] + (a - 2) * y[w1] + (n - 2 * a - b - k) * y[wa] + y[t1])
        ),
        "residual_wa": abs(
            lam0 * y[wa]
            - ((a + k) * y[u1] + (a - 1) * y[w1] + (n - 2 * a - b - k - 1) * y[wa])
        ),
        "ratio_lhs": ratio_lhs,
        "ratio_rhs": ratio_rhs,
        "ratio_relative_error": abs(ratio_lhs - ratio_rhs) / abs(ratio_rhs),
        "cubic_value": g_val,
    }


def _perron_off(metrics: dict) -> bool:
    return (
        any(metrics[f"residual_{c}"] >= RESIDUAL_TOL for c in ("t1", "t2", "w1", "wa"))
        or metrics["ratio_relative_error"] >= RATIO_TOL
        or not metrics["cubic_value"] > 0.0
    )


def check_perron_system(a: int, b: int, k: int, n: int) -> CheckResult:
    """On the distinguished member, with y the Perron vector and lam0 the
    radius, the five structural classes (clique block u, attached
    targets w1, rest of the big clique wa, attached independent vertex
    t1, untouched independent vertices t2) satisfy

        lam0 y(t1) = (a+k) y(u) + (a-1) y(w1)
        lam0 y(t2) = (a+k) y(u)
        lam0 y(w1) = (a+k) y(u) + (a-2) y(w1) + (n-2a-b-k) y(wa) + y(t1)
        lam0 y(wa) = (a+k) y(u) + (a-1) y(w1) + (n-2a-b-k-1) y(wa)

    with residuals below 1e-7, and the ratio identity

        y(t1)/y(t2) = lam0 (lam0+1) (lam0 - (n-2a-b-k-1)) / g(lam0)

    within 1e-6 relative, where g is perron_ratio_cubic; g(lam0) > 0.
    Needs a >= 2 so every class is populated."""
    FactorParams(a, b, k)  # validates the shape
    if a < 2:
        raise ValueError(f"the Perron system coordinates need a >= 2, got a={a}")
    result = partial(CheckResult, "perron-system", {"a": a, "b": b, "k": k, "n": n})
    need = bracket_min_n(a, b, k)
    if n < need:
        return _not_met(result, need, "radius location")
    fp = ExtremalParams(a, b, k, n)
    if n - 2 * a - b - k < 1:
        raise ValueError("the untouched clique class is empty at this order")
    g = extremal_graph(fp)
    metrics = _perron_metrics(g, a, b, k, n)
    if _perron_off(metrics):
        return result(
            "fail",
            metrics,
            counterexample={
                "kind": "perron-system-residual",
                "graph": serialize_graph(g),
                "a": a,
                "b": b,
                "k": k,
                "n": n,
            },
        )
    return result("pass", metrics)


def _verdicts(
    g: Graph, route: str, params: FactorParams
) -> tuple[DeficiencyCertificate | None, bool]:
    """The sweep's certificate and the definitional verdict on one graph,
    as a decider-disagreement counterexample is rechecked."""
    return decide(g, route, params), critical_by_definition(g, params, route)


def _decider_disagrees(cert: DeficiencyCertificate | None, definition: bool) -> bool:
    return (cert is None) != definition


def cross_validate_deciders(n_max: int, param_grid: Iterable) -> CheckResult:
    """Deficiency-sweep deciders versus brute-force factor search after
    every k-deletion, exhaustively over connected graphs with n <= n_max
    (n_max <= 7).  Each grid item gets its own `definition_oracle` for the
    call, so at k >= 1 its factor oracle is asked about each labelled
    G - K once (1,096 searches for (2, 2, 1) at n_max = 6, over 27,470
    graphs).  That memo holds one bool per labelled graph on at most
    n_max - k vertices (about 33k at n_max = 7) and is dropped when the
    call returns; at k = 0 every graph is searched once and nothing is
    kept.  An n_max below some item's smallest decidable order a+k+1 is
    hypothesis_not_met, since that item would be compared on no graph."""
    if not 1 <= n_max <= 7:
        raise ValueError(f"exhaustive cross-validation needs 1 <= n_max <= 7, got {n_max}")
    grid = [((route, *nums), route, route_params(route, *nums)) for route, *nums in param_grid]
    if not grid:
        raise ValueError("empty parameter grid")
    params = {"n_max": n_max, "grid": [list(item) for item, _, _ in grid]}
    result = partial(CheckResult, "decider-cross-validation", params)
    need = max(p.a + p.k + 1 for _, _, p in grid)
    if n_max < need:
        return _not_met(result, need, "every grid item", order="n_max")
    definitions = [definition_oracle(p, route) for _, route, p in grid]
    compared = {"integral": 0, "fractional": 0, "parity": 0}
    skipped = 0
    graphs = 0
    for n in range(1, n_max + 1):
        for g in enumerate_graphs(n, connected_only=True):
            graphs += 1
            for (item, route, p), critical in zip(grid, definitions):
                if g.n < p.a + p.k + 1:
                    skipped += 1
                    continue
                cert, definition = decide(g, route, p), critical(g)
                if _decider_disagrees(cert, definition):
                    return result(
                        "fail",
                        {"graphs": graphs, **compared},
                        counterexample={
                            "kind": "decider-disagreement",
                            "graph": serialize_graph(g),
                            "item": list(item),
                            "decider_critical": cert is None,
                            "definition_critical": definition,
                            "certificate": None if cert is None else cert.to_json(),
                        },
                    )
                compared[route] += 1
    return result(
        "pass",
        {
            "graphs": graphs,
            **{f"compared_{route}": count for route, count in compared.items()},
            "skipped_too_small": skipped,
        },
    )


HONG_CURVE_SAMPLES = ((6, 12), (8, 24), (9, 30), (10, 45), (12, 50))


def _hong_tight(g: Graph) -> bool:
    """Whether the characterization promises equality: g is regular or
    every degree lies in {delta, n-1}."""
    degs = set(g.degrees())
    return degs <= {min(degs), g.n - 1}


def _hong_off(g: Graph, lam: float, bound: float) -> bool:
    return lam > bound + EIG_TOL or _hong_tight(g) != (bound - lam < RESIDUAL_TOL)


def _curve_rises(p: int, q: int, x_low: float, x_high: float) -> bool:
    return hong_bound_formula(x_high, p, q) > hong_bound_formula(x_low, p, q) + 1e-12


def check_hong_bound(n_max: int, curve_points: int = 100) -> CheckResult:
    """The degree-based bound dominates the radius on every connected
    graph with n <= n_max and minimum degree >= 1, with equality (within
    1e-7) exactly on regular graphs and graphs whose degrees all lie in
    {delta, n-1}.  Also checks the bound curve decreases in the
    minimum-degree argument on a fixed grid of (order, size) samples
    chosen inside the curve's real domain."""
    if not 2 <= n_max <= 7:
        raise ValueError(f"exhaustive bound check needs 2 <= n_max <= 7, got {n_max}")
    if curve_points < 2:
        raise ValueError(f"the curve check needs curve_points >= 2, got {curve_points}")
    result = partial(CheckResult, "hong-bound", {"n_max": n_max, "curve_points": curve_points})
    graphs = 0
    equality_cases = 0
    worst_overrun = -math.inf
    min_strict_slack = math.inf
    for n in range(2, n_max + 1):
        for g in enumerate_graphs(n, connected_only=True):
            graphs += 1
            lam = spectral_radius(g).lam
            bound = hong_bound(g)
            worst_overrun = max(worst_overrun, lam - bound)
            expected_equal = _hong_tight(g)
            if _hong_off(g, lam, bound):
                return result(
                    "fail",
                    {"graphs": graphs},
                    counterexample={
                        "kind": "hong-equality-mismatch",
                        "graph": serialize_graph(g),
                        "lambda": lam,
                        "bound": bound,
                        "expected_equality": expected_equal,
                    },
                )
            if expected_equal:
                equality_cases += 1
            else:
                min_strict_slack = min(min_strict_slack, bound - lam)
    curve_checks = 0
    for p, q in HONG_CURVE_SAMPLES:
        xs = [i * (p - 1) / (curve_points - 1) for i in range(curve_points)]
        for i in range(len(xs) - 1):
            curve_checks += 1
            if _curve_rises(p, q, xs[i], xs[i + 1]):
                return result(
                    "fail",
                    {"graphs": graphs},
                    counterexample={
                        "kind": "curve-monotonicity-violation",
                        "p": p,
                        "q": q,
                        "x_low": xs[i],
                        "x_high": xs[i + 1],
                    },
                )
    return result(
        "pass",
        {
            "graphs": graphs,
            "equality_cases": equality_cases,
            "worst_overrun": worst_overrun,
            "min_strict_slack": min_strict_slack,
            "curve_comparisons": curve_checks,
        },
    )


def check_sharpness(a: int, b: int, k: int, n: int, route: str) -> CheckResult:
    """At the stated order bound of the spectral criticality condition on
    `route` ("integral", b > a, or "fractional", b >= a), the
    distinguished member meets every hypothesis (connected, minimum
    degree exactly a+k, radius trivially at the threshold) and still is
    not critical, so the excluded-graph clause is non-vacuous.  The size
    condition's sharpness is check_edge_count_sharpness.

    The non-criticality witness is the joined clique block with
    deficiency exactly 1, re-checked from the deficiency definition."""
    fparams = route_params(route, a, b, k)
    need = spectral_min_n(a, b, k)
    params = {"a": a, "b": b, "k": k, "n": n, "route": route}
    result = partial(CheckResult, "sharpness", params)
    if n < need:
        return _not_met(result, need, f"{route} sharpness claim")
    fp = ExtremalParams(a, b, k, n)
    g = extremal_graph(fp)
    metrics: dict = {"min_n": need, "delta": g.min_degree()}
    failure, cert = _sharpness_core(result, g, route, fparams, metrics)
    if failure:
        return failure
    metrics["block_deficiency"] = cert.deficiency
    metrics["lambda"] = spectral_radius(g).lam
    return result(
        "pass",
        metrics,
        notes=(
            f"{_sharpness_route(g)}; the graph meets the radius hypothesis "
            "trivially and the minimum-degree hypothesis with equality, yet is "
            "not critical"
        ),
    )


def _not_lowered(lam: float, lam_sub: float) -> bool:
    return lam_sub >= lam - PROPERTY_MARGIN


def _monotonicity_step(rng: random.Random, g: Graph) -> tuple | None:
    edges = g.edges()
    rng.shuffle(edges)
    goal = rng.randint(1, max(1, len(edges) // 3))
    sub = g
    removed = []
    for u, v in edges:
        if len(removed) == goal:
            break
        trial = sub.without_edge(u, v)
        if trial.is_connected():
            sub = trial
            removed.append((u, v))
    if not removed:
        return None
    lam = spectral_radius(g).lam
    lam_sub = spectral_radius(sub).lam
    violated = _not_lowered(lam, lam_sub)
    return lam - lam_sub, violated, {"removed": [list(e) for e in removed]}


def _rotate(g: Graph, u: int, v: int, moved) -> Graph:
    for w in moved:
        g = g.without_edge(v, w).with_edge(u, w)
    return g


def _not_raised(lam: float, lam_rot: float) -> bool:
    return lam_rot <= lam + PROPERTY_MARGIN


def _rotation_step(rng: random.Random, g: Graph) -> tuple | None:
    report = spectral_radius(g)
    x = report.perron
    u, v = rng.sample(range(g.n), 2)
    if x[v] > x[u]:
        u, v = v, u
    movable = [w for w in g.neighbors(v) if w != u and not g.has_edge(u, w)]
    if not movable:
        return None
    chosen = rng.sample(movable, rng.randint(1, len(movable)))
    lam_rot = spectral_radius(_rotate(g, u, v, chosen)).lam
    violated = _not_raised(report.lam, lam_rot)
    return lam_rot - report.lam, violated, {"u": u, "v": v, "moved": chosen}


# check id -> (counterexample kind, metric, edge-density range, instance step)
_PERTURBATION_SUITES = {
    "subgraph-monotonicity": ("monotonicity-violation", "min_drop", (0.4, 0.8), _monotonicity_step),
    "edge-rotation": ("rotation-violation", "min_gain", (0.35, 0.75), _rotation_step),
}


def _perturbation_suite(check_id: str, count: int, seed: int) -> CheckResult:
    """Run the suite's step on seeded connected graphs g on 4-9 vertices
    until `count` are kept.  A step returns None to discard g, or (value,
    violated, fields): the least value is the suite's metric, and a
    violation fails with a counterexample on g that carries `fields`."""
    kind, metric, density, step = _PERTURBATION_SUITES[check_id]
    if count < 1:
        raise ValueError("need count >= 1")
    rng = random.Random(seed)
    result = partial(CheckResult, check_id, {"count": count, "seed": seed})
    least = math.inf
    built = 0
    while built < count:
        n = rng.randint(4, 9)
        g = random_connected_graph(rng, n, rng.uniform(*density))
        drawn = step(rng, g)
        if drawn is None:
            continue
        value, violated, fields = drawn
        built += 1
        least = min(least, value)
        if violated:
            ce = {"kind": kind, "graph": serialize_graph(g), **fields}
            return result("fail", {"instances": built, metric: least}, counterexample=ce)
    return result("pass", {"instances": built, metric: least})


def check_subgraph_monotonicity(count: int = 200, seed: int = 0) -> CheckResult:
    """Deleting edges from a connected graph, while keeping it connected,
    strictly lowers the spectral radius (margin 1e-10).  Randomized
    instances, deterministic per seed."""
    return _perturbation_suite("subgraph-monotonicity", count, seed)


def check_edge_rotation(count: int = 200, seed: int = 0) -> CheckResult:
    """Rotating edges from v to a vertex u with Perron entry >= that of v
    strictly raises the spectral radius (margin 1e-10).  Instances are
    built per the statement: the moved endpoints are neighbors of v that
    are not u and not adjacent to u.  Deterministic per seed."""
    return _perturbation_suite("edge-rotation", count, seed)


def _candidate_fails(cand: dict, r: int, k: int) -> bool:
    """An explorer candidate does not stand from its serialized form: the
    certificate does not recheck, the graph is (r, k)-critical after all,
    or its radius is not the reported one or falls below the family's."""
    g = deserialize_graph(cand["graph"])
    lam = spectral_radius(g).lam
    return not (
        recheck_certificate(
            g, DeficiencyCertificate.from_json(cand["certificate"]), route_params("parity", r, k)
        )
        and is_rk_critical(g, r, k) is not None
        and abs(lam - cand["lambda"]) < STRICT_MARGIN
        and lam >= cand["lambda_family"] - 2 * STRICT_MARGIN
    )


def _candidates_stand(candidates: list[dict], r: int, k: int) -> bool:
    return not any(_candidate_fails(cand, r, k) for cand in candidates)


class _BudgetExhausted(Exception):
    pass


def _non_edges(g: Graph) -> list[tuple[int, int]]:
    return [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if not g.has_edge(u, v)]


def explore_conjecture(r: int, k: int, n: int, budget: int, seed: int = 0) -> CheckResult:
    """Budgeted search for a connected graph with minimum degree >= r+k
    whose spectral radius is at least the family's, that is not the
    distinguished member, and that is not (r, k)-critical.

    Three phases, all deterministic per seed: single-edge additions to
    the distinguished member, single edge swaps on it, then random
    connected starts hill-climbed by adding the non-edge with the
    largest Perron entry product.  The budget counts spectral radius
    evaluations, full solves and screens alike: phases A and B only compare
    the radius with the family's, so they screen with
    `radius_unless_below`, while phase C climbs on converged Perron
    vectors.  Any candidate is reported with its full certificate and
    re-validated from serialization before the result is returned; a
    candidate that fails re-validation fails the check.

    The search order n is far below the order bound 2(2r+k+2)(r+k+2) of
    the criticality condition this search probes, so candidates found
    here do not contradict it, and finding none is evidence, not proof."""
    route_params("parity", r, k)
    if n > PAIR_SWEEP_CAP:
        raise ValueError(f"exact criticality checks cap the order at {PAIR_SWEEP_CAP}")
    if budget < 1:
        raise ValueError("need budget >= 1")
    fp = ExtremalParams(r, r, k, n)
    distinguished = extremal_graph(fp)
    lam_f = spectral_radius(distinguished).lam
    threshold = spectral_min_n(r, r, k)
    params = {"r": r, "k": k, "n": n, "budget": budget, "seed": seed}
    result = partial(CheckResult, "conjecture-explorer", params)
    rng = random.Random(seed)

    state = {"evals": 0}
    seen: set[tuple[int, ...]] = {distinguished.adj}
    stats = {
        "qualifying": 0,
        "critical_qualifying": 0,
        "isomorphic_excluded": 0,
        "phase_a": 0,
        "phase_b": 0,
        "phase_c_restarts": 0,
        "phase_c_climbs": 0,
    }
    candidates: list[dict] = []

    def spend() -> None:
        if state["evals"] >= budget:
            raise _BudgetExhausted
        state["evals"] += 1

    def screen(g: Graph, lam: float) -> None:
        """Record g if it qualifies and is a candidate."""
        if lam < lam_f - STRICT_MARGIN:
            return
        stats["qualifying"] += 1
        if isomorphic(g, distinguished):
            stats["isomorphic_excluded"] += 1
            return
        cert = is_rk_critical(g, r, k)
        if cert is None:
            stats["critical_qualifying"] += 1
            return
        candidates.append(
            {
                "graph": serialize_graph(g),
                "lambda": lam,
                "lambda_family": lam_f,
                "certificate": cert.to_json(),
            }
        )

    def consider(g: Graph) -> None:
        if g.adj in seen:
            return
        seen.add(g.adj)
        if not g.is_connected() or g.min_degree() < r + k:
            return
        spend()
        # only lam is read here, so an iterate whose Collatz-Wielandt bound
        # already lies below the screen's threshold settles g; the float
        # radius would have failed `lam < lam_f - STRICT_MARGIN` too
        report = radius_unless_below(g, lam_f - 2 * STRICT_MARGIN)
        if report is not None:
            screen(g, report.lam)

    try:
        non_edges = _non_edges(distinguished)
        for u, v in non_edges:
            stats["phase_a"] += 1
            consider(distinguished.with_edge(u, v))
        for eu, ev in distinguished.edges():
            base = distinguished.without_edge(eu, ev)
            for fu, fv in non_edges:
                stats["phase_b"] += 1
                consider(base.with_edge(fu, fv))
        while True:
            stats["phase_c_restarts"] += 1
            g = random_connected_graph(rng, n, 0.4, min_degree=r + k)
            while True:
                seen.add(g.adj)
                spend()
                report = spectral_radius(g)
                if report.lam >= lam_f - STRICT_MARGIN:
                    screen(g, report.lam)
                    break
                x = report.perron
                pairs = _non_edges(g)
                if not pairs:
                    break
                g = g.with_edge(*max(pairs, key=lambda e: x[e[0]] * x[e[1]]))
                stats["phase_c_climbs"] += 1
    except _BudgetExhausted:
        pass

    metrics = {**stats, "evaluations": state["evals"], "candidates": len(candidates)}
    for cand in candidates:
        if _candidate_fails(cand, r, k):
            return result(
                "fail",
                metrics,
                counterexample={
                    "kind": "candidate-revalidation-failure",
                    "r": r,
                    "k": k,
                    **cand,
                },
                notes="a reported candidate did not re-validate from serialization",
            )

    return result(
        "pass",
        {**metrics, "lambda_family": lam_f},
        counterexample={"kind": "explorer-candidates", "r": r, "k": k, "candidates": candidates}
        if candidates
        else None,
        notes=(
            f"searched order n={n} is far below the order bound "
            f"2(2r+k+2)(r+k+2) = {threshold} of the criticality condition; "
            "candidates here do not contradict it and an empty report is "
            "evidence, not proof"
        ),
    )


# -- counterexample revalidation ------------------------------------------------


def _hong_evidence(ce: dict) -> tuple:
    g = deserialize_graph(ce["graph"])
    return g, spectral_radius(g).lam, hong_bound(g)


def _monotonicity_evidence(ce: dict) -> tuple:
    """`without_edge` rejects a removed entry that names a vertex outside
    the graph, is not an edge, or repeats an edge."""
    g = deserialize_graph(ce["graph"])
    sub = g
    for u, v in ce["removed"]:
        sub = sub.without_edge(u, v)
    return spectral_radius(g).lam, spectral_radius(sub).lam


def _rotation_evidence(ce: dict) -> tuple:
    """The rotation lemma's hypotheses that no edit enforces: u and v are
    distinct vertices of the graph with x_u >= x_v.  An instance that
    breaks them gets an infinite rotated radius, so it never counts;
    `_rotate` rejects a moved vertex listed twice, or one that is u, not
    a neighbor of v, or already adjacent to u."""
    g = deserialize_graph(ce["graph"])
    report = spectral_radius(g)
    u, v, moved = ce["u"], ce["v"], ce["moved"]
    if not (0 <= u < g.n and 0 <= v < g.n and u != v and report.perron[u] >= report.perron[v]):
        return report.lam, math.inf
    return report.lam, spectral_radius(_rotate(g, u, v, moved)).lam


# kind -> (predicate, evidence).  The check that raises a kind decides
# "fail" by calling its predicate on values it computed itself;
# evidence recomputes the same values from the serialized counterexample.
# Tolerances are the module's constants, read by the predicates, never
# fields of the counterexample, which could forge them.
_COUNTEREXAMPLES: dict[str, tuple[Callable[..., bool], Callable[[dict], tuple]]] = {
    "spectral-out-of-interval": (
        _outside_interval,
        lambda ce: (_radius(ce["graph"]), ce["lower"], ce["upper"]),
    ),
    "spectral-not-dominated": (
        _not_dominated,
        lambda ce: (_radius(ce["graph"]), _radius(ce["rival"])),
    ),
    "edge-count-mismatch": (
        _edge_count_off,
        lambda ce: (deserialize_graph(ce["graph"]).edge_count, ce["expected"]),
    ),
    "certificate-mismatch": (
        _certificate_off,
        lambda ce: (
            _sharpness_certificate(
                deserialize_graph(ce["graph"]),
                ce["route"],
                FactorParams(ce["a"], ce["b"], ce["k"]),
            ),
            ce["expected_s_set"],
            ce["expected_deficiency"],
        ),
    ),
    "perron-system-residual": (
        _perron_off,
        lambda ce: (
            _perron_metrics(deserialize_graph(ce["graph"]), ce["a"], ce["b"], ce["k"], ce["n"]),
        ),
    ),
    "decider-disagreement": (
        _decider_disagrees,
        lambda ce: _verdicts(
            deserialize_graph(ce["graph"]), ce["item"][0], route_params(*ce["item"])
        ),
    ),
    "hong-equality-mismatch": (_hong_off, _hong_evidence),
    "curve-monotonicity-violation": (
        _curve_rises,
        lambda ce: (ce["p"], ce["q"], ce["x_low"], ce["x_high"]),
    ),
    "hypothesis-shape-mismatch": (
        _shape_off,
        lambda ce: (deserialize_graph(ce["graph"]), ce["expected_min_degree"]),
    ),
    "monotonicity-violation": (_not_lowered, _monotonicity_evidence),
    "rotation-violation": (_not_raised, _rotation_evidence),
    "candidate-revalidation-failure": (_candidate_fails, lambda ce: (ce, ce["r"], ce["k"])),
    # attached to passing explorer runs: True iff no candidate fails the
    # predicate the explorer applies to each one
    "explorer-candidates": (
        _candidates_stand,
        lambda ce: (ce["candidates"], ce["r"], ce["k"]),
    ),
}


def revalidate_counterexample(ce: dict) -> bool:
    """Confirm a counterexample from its serialization alone: re-derive
    the claimed discrepancy and return True iff it reproduces.  A
    counterexample with a missing or ill-formed field does not reproduce;
    an unknown or missing kind raises ValueError."""
    kind = ce.get("kind")
    if kind not in _COUNTEREXAMPLES:
        raise ValueError(f"unknown counterexample kind {kind!r}")
    predicate, evidence = _COUNTEREXAMPLES[kind]
    try:
        return predicate(*evidence(ce))
    except (KeyError, TypeError, ValueError, IndexError):
        return False


# -- battery --------------------------------------------------------------------


def battery_plan(level: str = "quick", seed: int = 0) -> list[tuple[str, dict]]:
    """The named checks and their arguments for one battery run.  Each
    entry is (check name, kwargs) and is independently runnable, so a
    parallel scheduler may execute them in any order."""
    if level not in ("quick", "full"):
        raise ValueError(f"level must be quick or full, got {level!r}")
    plan: list[tuple[str, dict]] = []
    if level == "quick":
        bracket_grid = [(1, 2, 0), (2, 3, 1)]
        maximality_grid = [(3, 3, 0), (4, 5, 1)]
        sharp_edge_grid = [(1, 2, 0)]
        perron_grid = [(2, 3, 0)]
        cross_items = [["integral", 1, 2, 0], ["fractional", 1, 1, 0], ["parity", 2, 0]]
        cross_n = 5
        hong_n = 5
        prop_count = 50
        explorer = {"r": 2, "k": 0, "n": 10, "budget": 300, "seed": seed}
    else:
        bracket_grid = [
            (a, b, kk)
            for a in (1, 2, 3)
            for b in range(a, 5)
            for kk in (0, 1, 2)
        ]
        maximality_grid = [
            (a, b, kk) for a in (3, 4) for b in (a, a + 1) for kk in (0, 1)
        ]
        sharp_edge_grid = [
            (a, b, kk) for a in (1, 2, 3) for b in range(a + 1, 5) for kk in (0, 1, 2)
        ]
        perron_grid = [(a, b, kk) for a in (2, 3) for b in (3, 4) for kk in (0, 1)]
        cross_items = [
            ["integral", 1, 2, 0],
            ["integral", 2, 3, 0],
            ["fractional", 1, 2, 0],
            ["fractional", 2, 2, 1],
            ["parity", 2, 0],
            ["parity", 2, 1],
        ]
        cross_n = 6
        hong_n = 6
        prop_count = 200
        explorer = {"r": 2, "k": 0, "n": 12, "budget": 10000, "seed": seed}
    for name, grid, min_n, offsets in (
        ("family-radius-bracket", bracket_grid, bracket_min_n, (0, 5)),
        ("family-maximality", maximality_grid, maximality_min_n, (0,)),
        ("edge-count-sharpness", sharp_edge_grid, size_min_n, (0, 5)),
        ("perron-system", perron_grid, bracket_min_n, (0, 3)),
    ):
        for a, b, kk in grid:
            for extra in offsets:
                plan.append((name, {"a": a, "b": b, "k": kk, "n": min_n(a, b, kk) + extra}))
    plan.append(
        ("decider-cross-validation", {"n_max": cross_n, "param_grid": cross_items})
    )
    plan.append(("hong-bound", {"n_max": hong_n}))
    # each route at its order bound; the fractional route at a == b, the
    # integral one needs b > a
    for route, a, b in (("integral", 1, 2), ("fractional", 2, 2)):
        n = spectral_min_n(a, b, 0)
        plan.append(("sharpness", {"a": a, "b": b, "k": 0, "n": n, "route": route}))
    plan.append(("subgraph-monotonicity", {"count": prop_count, "seed": seed}))
    plan.append(("edge-rotation", {"count": prop_count, "seed": seed + 1}))
    plan.append(("conjecture-explorer", explorer))
    return plan


_CHECK_FUNCTIONS: dict[str, Callable[..., CheckResult]] = {
    "family-radius-bracket": check_family_radius_bracket,
    "family-maximality": check_family_maximality,
    "edge-count-sharpness": check_edge_count_sharpness,
    "perron-system": check_perron_system,
    "decider-cross-validation": cross_validate_deciders,
    "hong-bound": check_hong_bound,
    "sharpness": check_sharpness,
    "subgraph-monotonicity": check_subgraph_monotonicity,
    "edge-rotation": check_edge_rotation,
    "conjecture-explorer": explore_conjecture,
}


def run_check(name: str, kwargs: dict) -> CheckResult:
    """Dispatch one named check.  (name, kwargs) pairs are picklable, so
    a process pool can map over a battery plan directly."""
    try:
        fn = _CHECK_FUNCTIONS[name]
    except KeyError:
        raise ValueError(f"unknown check {name!r}") from None
    return fn(**kwargs)

