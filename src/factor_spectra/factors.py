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
  oracle is exact as well.  A vertex of degree below a answers None before
  any network is built.  Otherwise the network is flat arc lists without
  zero-capacity arcs, and one Dinic function with an iterative
  blocking-flow search solves it.

Both kinds of witness are validated in half-units: every weight and degree
is read as an int count of halves from its numerator and denominator, so
validation is exact int arithmetic, with no floating point and no Fraction
sums.
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


def _in_halves(x) -> int | None:
    """x counted in half-units, read from its numerator and denominator
    (ints have both), or None unless 2x is an integer."""
    den = getattr(x, "denominator", 0)
    return x.numerator * (2 // den) if den in (1, 2) else None


def validate_witness(g: Graph, witness: FactorWitness, a: int, b: int) -> None:
    """Raise ValueError unless the witness is a genuine fractional or
    integral [a, b]-factor of g.  Every weight and degree is read as a
    whole number of half-units, so the check is exact int arithmetic and
    rejects weights whose denominator does not divide 2."""
    if witness.kind == "integral":
        weighted = ((u, v, 1) for u, v in witness.edges)
    elif witness.kind == "fractional":
        weighted = witness.weights
    else:
        raise ValueError(f"unknown witness kind {witness.kind!r}")
    deg = [0] * g.n  # half-units
    seen = set()
    for u, v, w in weighted:
        # range check first: a negative label would index adj from the end
        if not (0 <= u < g.n and 0 <= v < g.n and g.has_edge(u, v)):
            raise ValueError(f"witness edge ({u},{v}) not in the graph")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ValueError(f"witness repeats edge ({u},{v})")
        seen.add(key)
        half = _in_halves(w)
        if half not in (1, 2):
            raise ValueError(f"weight {w} on ({u},{v}) is not exactly 1/2 or 1")
        deg[u] += half
        deg[v] += half
    if len(witness.degrees) != g.n or any(
        _in_halves(d) != half for d, half in zip(witness.degrees, deg)
    ):
        raise ValueError("witness degrees do not match its edges")
    for v in range(g.n):
        if not 2 * a <= deg[v] <= 2 * b:
            raise ValueError(
                f"vertex {v} has witness degree {Fraction(deg[v], 2)} not in [{a},{b}]"
            )


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
    # a successful search returns before undoing its counts, so `chosen`
    # holds the witness degrees
    witness = FactorWitness(
        kind="integral",
        edges=tuple(edges[i] for i in picked),
        weights=None,
        degrees=tuple(chosen),
    )
    validate_witness(g, witness, a, b)
    return witness


# -- fractional oracle via max-flow -------------------------------------------

# Fraction(h, 2) for the half-unit counts h of graphs with degrees below
# 32, so that witnesses share these objects instead of normalizing a new
# Fraction per weight and per degree.
_HALVES = tuple(Fraction(h, 2) for h in range(64))


def _from_halves(h: int) -> Fraction:
    return _HALVES[h] if h < len(_HALVES) else Fraction(h, 2)


def _max_flow(head: list[list[int]], to: list[int], cap: list[int], s: int, t: int) -> int:
    """Dinic's max-flow from s to t on integer capacities, updating the
    residual capacities `cap` in place; arc i runs to to[i], its reverse
    is i ^ 1, and head[u] lists u's arcs in insertion order.

    The blocking-flow search is an explicit-stack depth-first walk.  It
    tries arcs in list order and keeps each node's arc pointer across
    augmentations, so it augments along the same paths, in the same
    order, as the textbook recursive search."""
    n = len(head)
    flow = 0
    while True:
        level = [-1] * n
        level[s] = 0
        queue = [s]
        for u in queue:
            nxt = level[u] + 1
            for i in head[u]:
                v = to[i]
                if cap[i] and level[v] < 0:
                    level[v] = nxt
                    queue.append(v)
        if level[t] < 0:
            return flow
        it = [0] * n
        path: list[int] = []  # arcs from s to u along the current walk
        u = s
        while True:
            if u == t:
                pushed = min(map(cap.__getitem__, path))
                flow += pushed
                for i in path:
                    cap[i] -= pushed
                    cap[i ^ 1] += pushed
                # back up to the first saturated arc's tail: every node
                # before it would walk the same arcs again
                cut = list(map(cap.__getitem__, path)).index(0)
                u = to[path[cut] ^ 1]
                del path[cut:]
                continue
            arcs = head[u]
            want = level[u] + 1
            for k in range(it[u], len(arcs)):
                i = arcs[k]
                if cap[i] and level[to[i]] == want:
                    it[u] = k
                    path.append(i)
                    u = to[i]
                    break
            else:
                # dead end: retire u and advance its parent past the arc to u
                it[u] = len(arcs)
                if not path:
                    break
                u = to[path.pop() ^ 1]
                it[u] += 1


def find_fractional_factor(g: Graph, a: int, b: int) -> FactorWitness | None:
    """Fractional [a, b]-factor (half-integral weights), or None.

    Feasibility on the bipartite double cover is equivalent to fractional
    feasibility on g: any fractional factor doubles to a cover flow, and
    an integral cover flow (which max-flow provides) averages back to a
    half-integral factor.  A vertex of degree below a rules out every
    weighting, so that case returns None before any flow is run.
    """
    if not 0 <= a <= b:
        raise ValueError(f"need 0 <= a <= b, got a={a}, b={b}")
    n = g.n
    degrees = g.degrees()
    if any(d < a for d in degrees):
        return None
    edges = g.edges()

    # node ids: S*=0, T*=1 (excess supply/demand), s=2, t=3,
    # v+ = 4+v, v- = 4+n+v
    sup, dem, s, t = 0, 1, 2, 3
    arcs = []
    for v in range(n):
        # original arcs s -> v+ and v- -> t with bounds [a, b]
        arcs += ((s, 4 + v, b - a), (4 + n + v, t, b - a))
        # lower-bound excess: v+ demands a, v- supplies a
        arcs += ((sup, 4 + v, a), (4 + n + v, dem, a))
    # s loses n*a of supply, t gains n*a
    arcs += ((sup, t, n * a), (s, dem, n * a))
    arcs.append((t, s, n * b + 1))  # close the circulation
    for u, v in edges:
        arcs += ((4 + u, 4 + n + v, 1), (4 + v, 4 + n + u, 1))

    # flat residual network, zero-capacity arcs left out; arc i runs to
    # to[i] with residual cap[i], and i ^ 1 is its reverse
    head: list[list[int]] = [[] for _ in range(4 + 2 * n)]
    to: list[int] = []
    cap: list[int] = []
    for u, v, c in arcs:
        if c:
            head[u].append(len(to))
            head[v].append(len(to) + 1)
            to += (v, u)
            cap += (c, 0)

    if _max_flow(head, to, cap, sup, dem) != 2 * n * a:
        return None

    weights = []
    deg = [0] * n  # half-units
    first = len(to) - 4 * len(edges)  # edge e's cover arcs: first + 4e and + 2
    for e, (u, v) in enumerate(edges):
        i = first + 4 * e
        used = 2 - cap[i] - cap[i + 2]  # residual -> used units
        if used:
            weights.append((u, v, _HALVES[used]))
            deg[u] += used
            deg[v] += used
    witness = FactorWitness(
        kind="fractional",
        edges=None,
        weights=tuple(weights),
        degrees=tuple(map(_from_halves, deg)),
    )
    validate_witness(g, witness, a, b)
    return witness
