"""Deficiency characterizations of factor criticality, with certificates.

A graph G is (a, b, k)-critical when G - K has an [a, b]-factor for every
K of exactly k vertices; fractionally so when G - K always has a
fractional [a, b]-factor; (r, k)-critical when r-factors are required.
Each notion has an exact finite test:

* integral (needs b > a): for every S with |S| >= k, writing
  T = {x not in S : d_{G-S}(x) <= a-1},
      a|T| - sum_{x in T} d_{G-S}(x) <= b|S| - bk.
* fractional (b >= a allowed): with threshold a instead of a-1,
      b|S| - a|T| + sum_{x in T} d_{G-S}(x) >= bk.
* parity (r >= 2, covers a = b = r): for all disjoint X, Y with |X| >= k,
      r|X| - r|Y| + sum_{v in Y} d_{G-X}(v) - h(X, Y) >= rk,
  where h counts components C of G - (X u Y) with r|V(C)| + e(Y, C) odd.
  X = Y = emptyset is a legal pair when k = 0 and contributes the plain
  parity test on G itself.  Two facts bound the surplus (left side minus
  rk) from below, so the pair sweep skips pairs it cannot fail at:
  Tutte's parity lemma makes the surplus congruent to r(n - k) (mod 2),
  and for even r a counted component has an odd number of edges to Y,
  hence at least one, so h(X, Y) <= e(Y, V - X - Y).

The integral and fractional conditions share one deficiency: a vertex of
degree exactly a in G - S adds a - a = 0 to the T-sum, so the two differ
only in which vertices their certificates list as T.

Deciders sweep candidate sets in increasing size, then lexicographic
order, and return the first violating set as a DeficiencyCertificate
(deficiency = the amount by which the inequality fails; violating iff
> 0), so certificates are deterministic and minimal in that order.  The
integral and fractional sweep reads at size s only the rows of vertices
with d(x) < a + s, the only ones that can fall below a in G - S, and
skips a size with none.  A returned None means critical.  The parity
decider asks for witnesses first: on a graph of minimum degree >= r + k
it calls `find_r_factor` once for G - K per k-set K, and answers
critical when every call finds a factor; otherwise the pair sweep runs
and gives the certificate.  Callers pass a route name (one of ROUTES:
"integral", "fractional" or "parity") through and never branch on it.
One check, `_check_route`, rejects an unknown name and a shape the route
cannot decide (b <= a for integral, a != b or r < 2 for parity); every
entry point that takes a route calls it, except that the definitional
integral mode takes a == b.  `certificate_at` pairs each route with its
deficiency and T threshold, `decide` with its sweep.
`critical_by_definition` is the independent brute-force route used to
cross-validate the deciders; its parity mode backtracks with
`find_ab_factor`, so it shares no factor oracle with `is_rk_critical`.
`definition_oracle` is the same route for a whole corpus: for k >= 1 it
asks an oracle about each labelled G - K once for as long as it lives.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

from .factors import find_ab_factor, find_fractional_factor, find_r_factor
from .graphs import Graph, bits, component

SUBSET_SWEEP_CAP = 20
PAIR_SWEEP_CAP = 12
ROUTES = ("integral", "fractional", "parity")


@dataclass(frozen=True)
class FactorParams:
    """Window [a, b] and deletion count k for criticality questions."""

    a: int
    b: int
    k: int

    def __post_init__(self):
        if self.a < 1:
            raise ValueError(f"need a >= 1, got a={self.a}")
        if self.b < self.a:
            raise ValueError(f"need b >= a, got a={self.a}, b={self.b}")
        if self.k < 0:
            raise ValueError(f"need k >= 0, got k={self.k}")


@dataclass(frozen=True)
class DeficiencyCertificate:
    """A violating set (or pair) together with the deficiency it attains.

    kind "integral"/"fractional": s_set is the deleted set S, t_set the
    induced low-degree set T.  kind "parity": s_set is X, t_set is Y.
    Re-evaluating the matching deficiency function on (graph, sets) must
    reproduce `deficiency` exactly; `violating` iff deficiency > 0.
    """

    kind: str
    s_set: tuple[int, ...]
    t_set: tuple[int, ...]
    deficiency: int

    def __post_init__(self):
        # exact ints only: 1.0 and True compare equal to 1, so a recheck by
        # == would accept them
        if self.kind not in ROUTES:
            raise ValueError(f"unknown certificate kind {self.kind!r}")
        for value in (*self.s_set, *self.t_set, self.deficiency):
            if type(value) is not int:
                raise ValueError(f"certificate entry {value!r} is not an int")

    @property
    def violating(self) -> bool:
        return self.deficiency > 0

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "s_set": list(self.s_set),
            "t_set": list(self.t_set),
            "deficiency": self.deficiency,
        }

    @staticmethod
    def from_json(d: dict) -> "DeficiencyCertificate":
        s_set, t_set = tuple(d["s_set"]), tuple(d["t_set"])
        return DeficiencyCertificate(d["kind"], s_set, t_set, d["deficiency"])


def _mask_of(g: Graph, vertices) -> int:
    m = 0
    for v in vertices:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range for n={g.n}")
        if m >> v & 1:
            raise ValueError(f"vertex {v} listed twice")
        m |= 1 << v
    return m


def low_degree_set(g: Graph, s_set, max_degree: int) -> tuple[int, ...]:
    """Vertices outside S whose degree into G - S is <= max_degree."""
    s_mask = _mask_of(g, s_set)
    keep = ~s_mask
    return tuple(
        v
        for v in range(g.n)
        if not s_mask >> v & 1 and (g.adj[v] & keep).bit_count() <= max_degree
    )


# -- deficiencies --------------------------------------------------------------


def _check_route(route: str, a: int, b: int) -> None:
    """Raise ValueError unless route is one of ROUTES and can decide the
    window [a, b]: integral needs b > a, parity a == b == r >= 2."""
    if route == "integral" and b <= a:
        raise ValueError(
            "integral characterization needs b > a; for a == b == r use the parity "
            "route (is_rk_critical, or the rk verb)"
        )
    if route == "parity":
        if a != b:
            raise ValueError(f"the parity route needs a == b == r, got a={a}, b={b}")
        if a < 2:
            raise ValueError(f"parity characterization needs r >= 2, got r={a}")
    if route not in ROUTES:
        raise ValueError(f"unknown route {route!r}")


def route_params(route: str, *nums: int) -> FactorParams:
    """FactorParams for a route: (a, b, k) for "integral" (b > a) and
    "fractional", (r, k) for "parity" (r >= 2) as FactorParams(r, r, k).
    Raises ValueError for an unknown route, a wrong count of numbers, or a
    shape the route cannot decide."""
    if route not in ROUTES:
        raise ValueError(f"unknown route {route!r}")
    shape = ("r", "k") if route == "parity" else ("a", "b", "k")
    if len(nums) != len(shape):
        raise ValueError(f"the {route} route takes ({', '.join(shape)}), got {len(nums)} numbers")
    if route == "parity":
        r, k = nums
        _check_route(route, r, r)  # before FactorParams, which would name r "a"
        return FactorParams(r, r, k)
    a, b, k = nums
    params = FactorParams(a, b, k)
    _check_route(route, a, b)
    return params


def _deficiency(pairs, s_mask: int, s_size: int, a: int, b: int, k: int) -> int:
    """sum of a - d_{G-S}(x) over x outside S with d_{G-S}(x) < a, minus
    b(|S| - k); pairs holds (1 << v, adjacency row of v) for every v that
    can have d_{G-S}(v) < a, and may hold others."""
    keep = ~s_mask
    total = b * (k - s_size)
    for bit, row in pairs:
        if not s_mask & bit:
            d = (row & keep).bit_count()
            if d < a:
                total += a - d
    return total


def fractional_deficiency(g: Graph, s_set, params: FactorParams) -> int:
    """bk - (b|S| - a|T| + sum_T d_{G-S}) with T at threshold a.
    Positive iff S witnesses that G is not fractionally (a, b, k)-critical,
    and for b > a not (a, b, k)-critical: the integral T, at threshold
    a-1, gives the same sum, since a vertex of degree a adds a - a = 0."""
    s_mask = _mask_of(g, s_set)
    s_size = s_mask.bit_count()
    if s_size < params.k:
        raise ValueError(f"|S| = {s_size} below k = {params.k}")
    pairs = [(1 << v, row) for v, row in enumerate(g.adj)]
    return _deficiency(pairs, s_mask, s_size, params.a, params.b, params.k)


def _count_odd_components_mask(adj, n, x_mask, y_mask, r) -> int:
    """Components C of G - (X u Y) with r|V(C)| + e_G(Y, V(C)) odd."""
    rest = ((1 << n) - 1) & ~(x_mask | y_mask)
    odd = 0
    while rest:
        comp = component(adj, rest & -rest, rest)
        rest &= ~comp
        edges_to_y = 0
        m = comp
        while m:
            bit = m & -m
            edges_to_y += (adj[bit.bit_length() - 1] & y_mask).bit_count()
            m ^= bit
        if (r * comp.bit_count() + edges_to_y) & 1:
            odd += 1
    return odd


def parity_deficiency(g: Graph, x_set, y_set, r: int, k: int) -> int:
    """rk - (r|X| - r|Y| + sum_{v in Y} d_{G-X}(v) - h(X, Y)).
    Positive iff (X, Y) witnesses that G is not (r, k)-critical."""
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    x_mask = _mask_of(g, x_set)
    y_mask = _mask_of(g, y_set)
    if x_mask & y_mask:
        raise ValueError("X and Y must be disjoint")
    if x_mask.bit_count() < k:
        raise ValueError(f"|X| = {x_mask.bit_count()} below k = {k}")
    h = _count_odd_components_mask(g.adj, g.n, x_mask, y_mask, r)
    deg_sum = sum((g.adj[v] & ~x_mask).bit_count() for v in bits(y_mask))
    return r * k - (
        r * x_mask.bit_count() - r * y_mask.bit_count() + deg_sum - h
    )


def certificate_at(
    g: Graph, route: str, params: FactorParams, s_set, y_set=()
) -> DeficiencyCertificate:
    """The route's certificate at one set, violating or not.  "integral"
    and "fractional": S = s_set with T at threshold a-1 and a
    respectively, and y_set is not read.  "parity": X = s_set and
    Y = y_set, with params = FactorParams(r, r, k)."""
    _check_route(route, params.a, params.b)
    s_set = tuple(s_set)
    if route == "parity":
        d = parity_deficiency(g, s_set, y_set, params.a, params.k)
        return DeficiencyCertificate(route, s_set, tuple(y_set), d)
    d = fractional_deficiency(g, s_set, params)
    threshold = params.a - (route == "integral")
    return DeficiencyCertificate(route, s_set, low_degree_set(g, s_set, threshold), d)


# -- deciders -------------------------------------------------------------------


def _sweep(g: Graph, route: str, params: FactorParams) -> DeficiencyCertificate | None:
    """The first S with |S| >= k (by size, then lex) of positive
    deficiency, as the route's certificate; None if none.

    Since d_{G-S}(x) >= d(x) - |S|, only a vertex with d(x) < a + |S|
    can add to the deficiency, so each size reads only those "risky" rows;
    a size with none has deficiency b(k - |S|) <= 0 at every S and is
    skipped."""
    a, b, k = params.a, params.b, params.k
    n, adj = g.n, g.adj
    if n < a + k + 1:
        raise ValueError(f"need n >= a + k + 1 = {a + k + 1}, got n={n}")
    if n > SUBSET_SWEEP_CAP:
        raise ValueError(f"n={n} exceeds the sweep cap {SUBSET_SWEEP_CAP}")
    degrees = g.degrees()
    singletons = [1 << v for v in range(n)]
    for size in range(k, n + 1):
        risky = [(1 << v, adj[v]) for v in range(n) if degrees[v] < a + size]
        if not risky:
            continue
        for combo in itertools.combinations(singletons, size):
            s_mask = sum(combo)
            if _deficiency(risky, s_mask, size, a, b, k) > 0:
                return certificate_at(g, route, params, tuple(bits(s_mask)))
    return None


def is_abk_critical(g: Graph, params: FactorParams) -> DeficiencyCertificate | None:
    """None iff G is (a, b, k)-critical; else the first violating S (by
    size, then lex) as an integral certificate.  Needs b > a and
    n >= a + k + 1; every S with |S| >= k is enumerated, so n is capped."""
    _check_route("integral", params.a, params.b)
    return _sweep(g, "integral", params)


def is_fractional_abk_critical(
    g: Graph, params: FactorParams
) -> DeficiencyCertificate | None:
    """None iff G is fractionally (a, b, k)-critical; else the first
    violating S as a fractional certificate.  Allows a == b."""
    return _sweep(g, "fractional", params)


def is_rk_critical(g: Graph, r: int, k: int) -> DeficiencyCertificate | None:
    """None iff G is (r, k)-critical (r-factor after every k-deletion);
    else the first violating disjoint pair (X, Y), X by size/lex, then Y
    by size/lex, as a parity certificate.

    Witness first: when min degree >= r + k, which every (r, k)-critical
    graph has, `find_r_factor` is asked for an r-factor of G - K for each
    k-set K, and each factor it returns has passed `validate_witness`.
    If every K has one, G is critical.  Otherwise, or when the degree test
    fails, the pair sweep runs and finds the certificate, so the output
    is the sweep's either way.  PAIR_SWEEP_CAP bounds n on both routes.
    """
    route_params("parity", r, k)
    if g.n < r + k + 1:
        raise ValueError(f"need n >= r + k + 1 = {r + k + 1}, got n={g.n}")
    if g.n > PAIR_SWEEP_CAP:
        raise ValueError(f"n={g.n} exceeds the pair sweep cap {PAIR_SWEEP_CAP}")
    if g.min_degree() >= r + k and _holds_after_deletions(
        g, k, lambda h: find_r_factor(h, r) is not None
    ):
        return None
    return _pair_sweep(g, r, k)


def _pair_sweep(g: Graph, r: int, k: int) -> DeficiencyCertificate | None:
    """The first violating pair (X, Y) in is_rk_critical's order, or None;
    the caller has checked r, k and n.

    Pairs are skipped, never reordered, when a sound lower bound on the
    surplus r(|X| - k) + sum_Y (d_{G-X}(v) - r) - h(X, Y) proves them
    clean, so exactness and the first violation are unaffected:

    * Tutte's parity lemma: the surplus is congruent to r(n - k) (mod 2),
      so when that is even a violating surplus is at most -2, and a lower
      bound of -1 already rules the pair out.
    * h(X, Y) <= |R| with R = V - X - Y; for even r also h <= e(Y, R),
      since a counted component C has e(Y, C) odd, hence at least one
      edge to Y, and e(Y, R) <= sum_Y d_{G-X}(v); so the surplus is at
      least r(|X| - k) - r|Y|.
    * A whole |Y| = l slice is skipped when the sum of the l smallest
      d_{G-X}(v) - r, less |R|, already clears the bound, or for even r
      when r(|X| - k) - rl does; a single Y is skipped, before h is
      counted, on its own degree sum less |R|.  A whole X is skipped
      when the lowest slice bound over all l clears, and the sweep ends
      once |X| alone makes that certain.
    """
    params = FactorParams(r, r, k)
    adj = g.adj
    n = g.n
    # a violating surplus is negative and congruent to r(n - k) (mod 2)
    slack = 2 if r * (n - k) % 2 == 0 else 1
    # risky[s]: the vertices that can be short (d_{G-X}(v) < r - 1) once
    # s vertices are deleted, since d_{G-X}(v) >= d_G(v) - |X|; v joins at
    # s = d_G(v) - r + 2 <= n - 1 and stays, so one pass fills it
    risky = [0] * (n + 1)
    for v, d in enumerate(g.degrees()):
        risky[max(d - r + 2, 0)] |= 1 << v
    for s in range(n):
        risky[s + 1] |= risky[s]
    singletons = [1 << v for v in range(n)]
    for x_size in range(k, n + 1):
        base = r * (x_size - k)
        # `low` is the slice bound with h <= |R|, R = rest minus Y.  Over l
        # it falls by r - 1 - d_{G-X}(v) <= r - 1 at each short vertex, then
        # rises, so X is clean once its lowest value clears.  Counting every
        # rest vertex as short ends the sweep (the bound grows with |X|);
        # counting the risky ones skips X before any degree is read.
        size_low = base - (n - x_size)
        if size_low - (r - 1) * (n - x_size) > -slack:
            break
        for combo in itertools.combinations(singletons, x_size):
            x_mask = sum(combo)
            low = size_low
            if low - (r - 1) * (risky[x_size] & ~x_mask).bit_count() > -slack:
                continue
            keep = ~x_mask
            deg = [(row & keep).bit_count() for row in adj]
            rest = [v for v in range(n) if not x_mask >> v & 1]
            short = [deg[v] for v in rest if deg[v] < r - 1]
            if low + sum(short) - (r - 1) * len(short) > -slack:
                continue
            margins = sorted(deg[v] - r for v in rest)
            for l in range(len(rest) + 1):
                if l:
                    low += margins[l - 1] + 1
                if low > -slack or (r % 2 == 0 and base - r * l > -slack):
                    continue
                outside_size = len(rest) - l  # |R|
                for y_combo in itertools.combinations(rest, l):
                    y_mask = 0
                    deg_sum = 0
                    for v in y_combo:
                        y_mask |= 1 << v
                        deg_sum += deg[v]
                    surplus = base + deg_sum - r * l  # before h is subtracted
                    if surplus - outside_size > -slack:
                        continue
                    h = _count_odd_components_mask(adj, n, x_mask, y_mask, r)
                    if surplus - h < 0:
                        return certificate_at(g, "parity", params, tuple(bits(x_mask)), y_combo)
    return None


def decide(g: Graph, route: str, params: FactorParams) -> DeficiencyCertificate | None:
    """The sweep for one route: "integral" (is_abk_critical), "fractional"
    (is_fractional_abk_critical) or "parity" (is_rk_critical, with
    params = FactorParams(r, r, k)).  None means critical."""
    _check_route(route, params.a, params.b)
    if route == "parity":
        return is_rk_critical(g, params.a, params.k)
    if route == "integral":
        return is_abk_critical(g, params)
    return is_fractional_abk_critical(g, params)


# -- definitional route ---------------------------------------------------------


def _factor_test(params: FactorParams, mode: str) -> Callable[[Graph], bool]:
    """Whether a graph has the mode's factor, by its witness oracle.  The
    definition needs no b > a, so the integral mode also takes a == b."""
    if mode != "integral":
        _check_route(mode, params.a, params.b)
    oracle = find_fractional_factor if mode == "fractional" else find_ab_factor
    a, b = params.a, params.b
    return lambda h: oracle(h, a, b) is not None


def _holds_after_deletions(g: Graph, k: int, has_factor: Callable[[Graph], bool]) -> bool:
    """has_factor(G - K) for every k-set K: the definition's one loop, and
    the parity decider's witness loop."""
    return all(
        has_factor(g.delete_vertices(kill) if kill else g)
        for kill in itertools.combinations(range(g.n), k)
    )


def definition_oracle(params: FactorParams, mode: str) -> Callable[[Graph], bool]:
    """`critical_by_definition` as a function of G, for one corpus.

    For k >= 1 the function keeps each oracle answer, a bool keyed by the
    adjacency rows of G - K, for as long as it lives, so a labelled G - K
    met again (from another K, or another G) costs no second search.
    Over graphs with n <= n_max the memo is bounded by the labelled
    graphs on at most n_max - k vertices: 1,100 at n_max = 6 and k = 1 (a
    grid item with a + k + 1 = 4 reaches 1,096), and about 33k at
    n_max = 7.  At k = 0, G - K is G, each graph of a corpus is met once,
    and nothing is kept.
    """
    has_factor = _factor_test(params, mode)
    k = params.k
    if k == 0:
        return has_factor
    found: dict[tuple[int, ...], bool] = {}

    def remembered(h: Graph) -> bool:
        has = found.get(h.adj)
        if has is None:
            has = found[h.adj] = has_factor(h)
        return has

    return lambda g: _holds_after_deletions(g, k, remembered)


def critical_by_definition(g: Graph, params: FactorParams, mode: str) -> bool:
    """Brute force straight from the definition: try every deletion set K
    of size exactly k and ask the witness oracle for an [a, b]-factor
    (mode "integral"), an [r, r]-factor (mode "parity", with
    params = FactorParams(r, r, k)) or a fractional [a, b]-factor (mode
    "fractional") of G - K.  Independent of the deficiency machinery.
    No memo: one oracle call per K until the first refusal.  To decide a
    corpus, `definition_oracle` asks about each labelled G - K once."""
    return _holds_after_deletions(g, params.k, _factor_test(params, mode))


def recheck_certificate(g: Graph, cert: DeficiencyCertificate, params: FactorParams) -> bool:
    """True iff the certificate's route, re-evaluated from scratch at its
    sets, gives back the same certificate and it is violating.  Parity
    certificates take params = FactorParams(r, r, k), as decide does."""
    return certificate_at(g, cert.kind, params, cert.s_set, cert.t_set) == cert and cert.violating
