"""Witness oracles for degree-constrained factors.

Two independent routes that never consult the deficiency characterizations,
so decider results can be cross-validated against them:

* find_ab_factor: exhaustive backtracking over edge subsets for a spanning
  subgraph with all degrees in [a, b].  Deliberately desk-scale (edge count
  capped) and exact.
* find_fractional_factor: a fractional [a, b]-factor via max-flow on the
  bipartite double cover (each vertex split into a + and a - copy, each
  edge giving one unit of capacity in both directions).  Degree windows
  become arc lower bounds, removed by the standard excess-supply
  circulation reduction.  Integral flows on the cover average to
  half-integral edge weights, which is lossless for feasibility, so the
  oracle is exact as well.

Witness validation is exact rational arithmetic; no floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graphs import Graph

BACKTRACK_EDGE_CAP = 30


@dataclass(frozen=True)
class FactorWitness:
    """A checked factor.  Integral witnesses carry the chosen edge set;
    fractional ones carry per-edge weights (only nonzero ones listed),
    always with denominator dividing 2.  Degrees are per-vertex totals,
    ints for integral witnesses and Fractions for fractional ones."""

    kind: str  # "integral" | "fractional"
    edges: tuple[tuple[int, int], ...] | None
    weights: tuple[tuple[int, int, Fraction], ...] | None
    degrees: tuple

    def to_json(self) -> dict:
        if self.kind == "integral":
            return {
                "kind": "integral",
                "edges": [list(e) for e in self.edges],
                "degrees": list(self.degrees),
            }
        return {
            "kind": "fractional",
            "weights": [
                [u, v, w.numerator, w.denominator] for u, v, w in self.weights
            ],
            "degrees": [[d.numerator, d.denominator] for d in self.degrees],
        }


def validate_witness(g: Graph, witness: FactorWitness, a: int, b: int) -> None:
    """Raise ValueError unless the witness is a genuine fractional or
    integral [a, b]-factor of g.  All arithmetic exact: integral edges
    weigh the int 1, so integral witnesses never touch Fraction."""
    if witness.kind == "integral":
        weighted = ((u, v, 1) for u, v in witness.edges)
    elif witness.kind == "fractional":
        weighted = witness.weights
    else:
        raise ValueError(f"unknown witness kind {witness.kind!r}")
    deg = [0] * g.n
    seen = set()
    for u, v, w in weighted:
        if not g.has_edge(u, v):
            raise ValueError(f"witness edge ({u},{v}) not in the graph")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ValueError(f"witness repeats edge ({u},{v})")
        seen.add(key)
        if not 0 < w <= 1:
            raise ValueError(f"weight {w} on ({u},{v}) outside (0, 1]")
        deg[u] += w
        deg[v] += w
    if tuple(deg) != tuple(witness.degrees):
        raise ValueError("witness degrees do not match its edges")
    for v in range(g.n):
        if not a <= deg[v] <= b:
            raise ValueError(f"vertex {v} has witness degree {deg[v]} not in [{a},{b}]")


# -- integral oracle -----------------------------------------------------------


def find_ab_factor(g: Graph, a: int, b: int) -> FactorWitness | None:
    """Spanning subgraph with every degree in [a, b], or None.

    Backtracking over edges in sorted order; at each decision the two
    endpoint counts are pruned by: chosen > b, or chosen + undecided < a.
    Exhaustive, so None is a proof of nonexistence.  Edge count capped at
    BACKTRACK_EDGE_CAP to keep worst cases desk-scale.
    """
    if not 0 <= a <= b:
        raise ValueError(f"need 0 <= a <= b, got a={a}, b={b}")
    edges = g.edges()
    m = len(edges)
    if m > BACKTRACK_EDGE_CAP:
        raise ValueError(f"edge count {m} exceeds the oracle cap {BACKTRACK_EDGE_CAP}")

    undecided = list(g.degrees())
    if any(d < a for d in undecided):
        return None
    chosen = [0] * g.n
    picked: list[int] = []

    def feasible(v: int) -> bool:
        return chosen[v] <= b and chosen[v] + undecided[v] >= a

    def rec(i: int) -> bool:
        if i == m:
            return all(a <= chosen[v] <= b for v in range(g.n))
        u, v = edges[i]
        undecided[u] -= 1
        undecided[v] -= 1
        # include edge i
        chosen[u] += 1
        chosen[v] += 1
        if feasible(u) and feasible(v):
            picked.append(i)
            if rec(i + 1):
                return True
            picked.pop()
        chosen[u] -= 1
        chosen[v] -= 1
        # exclude edge i
        if feasible(u) and feasible(v) and rec(i + 1):
            return True
        undecided[u] += 1
        undecided[v] += 1
        return False

    if not rec(0):
        return None
    chosen_edges = tuple(edges[i] for i in picked)
    deg = [0] * g.n
    for u, v in chosen_edges:
        deg[u] += 1
        deg[v] += 1
    witness = FactorWitness(
        kind="integral", edges=chosen_edges, weights=None, degrees=tuple(deg)
    )
    validate_witness(g, witness, a, b)
    return witness


# -- fractional oracle via max-flow -------------------------------------------


class _Dinic:
    """Max-flow with integer capacities on a small directed graph."""

    def __init__(self, n: int):
        self.n = n
        self.head: list[list[int]] = [[] for _ in range(n)]
        self.to: list[int] = []
        self.cap: list[int] = []

    def add(self, u: int, v: int, cap: int) -> int:
        """Add arc u->v with the given capacity; returns the arc index."""
        i = len(self.to)
        self.head[u].append(i)
        self.to.append(v)
        self.cap.append(cap)
        self.head[v].append(i + 1)
        self.to.append(u)
        self.cap.append(0)
        return i

    def max_flow(self, s: int, t: int) -> int:
        flow = 0
        while True:
            level = [-1] * self.n
            level[s] = 0
            queue = [s]
            for u in queue:
                for i in self.head[u]:
                    v = self.to[i]
                    if self.cap[i] > 0 and level[v] < 0:
                        level[v] = level[u] + 1
                        queue.append(v)
            if level[t] < 0:
                return flow
            it = [0] * self.n

            def dfs(u: int, pushed: int) -> int:
                if u == t:
                    return pushed
                while it[u] < len(self.head[u]):
                    i = self.head[u][it[u]]
                    v = self.to[i]
                    if self.cap[i] > 0 and level[v] == level[u] + 1:
                        d = dfs(v, min(pushed, self.cap[i]))
                        if d > 0:
                            self.cap[i] -= d
                            self.cap[i ^ 1] += d
                            return d
                    it[u] += 1
                return 0

            while True:
                pushed = dfs(s, 1 << 60)
                if pushed == 0:
                    break
                flow += pushed


def find_fractional_factor(g: Graph, a: int, b: int) -> FactorWitness | None:
    """Fractional [a, b]-factor (half-integral weights), or None.

    Feasibility on the bipartite double cover is equivalent to fractional
    feasibility on g: any fractional factor doubles to a cover flow, and
    an integral cover flow (which max-flow provides) averages back to a
    half-integral factor.
    """
    if not 0 <= a <= b:
        raise ValueError(f"need 0 <= a <= b, got a={a}, b={b}")
    n = g.n
    edges = g.edges()

    # node ids: S*=0, T*=1 (excess supply/demand), s=2, t=3,
    # v+ = 4+v, v- = 4+n+v
    sup, dem, s, t = 0, 1, 2, 3
    din = _Dinic(4 + 2 * n)
    big = n * b + 1
    plus = lambda v: 4 + v
    minus = lambda v: 4 + n + v

    for v in range(n):
        # original arcs s -> v+ and v- -> t with bounds [a, b]
        din.add(s, plus(v), b - a)
        din.add(minus(v), t, b - a)
        # lower-bound excess: v+ demands a, v- supplies a
        din.add(sup, plus(v), a)
        din.add(minus(v), dem, a)
    # s loses n*a of supply, t gains n*a
    din.add(sup, t, n * a)
    din.add(s, dem, n * a)
    din.add(t, s, big)  # close the circulation

    cover_arcs = []  # (u, v, arc u+ -> v-, arc v+ -> u-)
    for u, v in edges:
        i = din.add(plus(u), minus(v), 1)
        j = din.add(plus(v), minus(u), 1)
        cover_arcs.append((u, v, i, j))

    need = 2 * n * a
    if din.max_flow(sup, dem) != need:
        return None

    weights = []
    deg = [Fraction(0)] * n
    for u, v, i, j in cover_arcs:
        used = (1 - din.cap[i]) + (1 - din.cap[j])  # residual -> used units
        if used:
            w = Fraction(used, 2)
            weights.append((u, v, w))
            deg[u] += w
            deg[v] += w
    witness = FactorWitness(
        kind="fractional", edges=None, weights=tuple(weights), degrees=tuple(deg)
    )
    validate_witness(g, witness, a, b)
    return witness
